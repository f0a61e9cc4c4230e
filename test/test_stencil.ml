(* Stencil back-end tests: library integrity (dense numbering, hole
   bounds, flat-pool coherence, once-per-process prewarm), artifact
   provenance and statistics, tier-ladder position, cost-model coverage,
   snapshot versioning, a differential check through the parallel serving
   pool, and the rax forwarding rules on hand-built functions. Cross-back-end
   result equivalence is covered by test_backends / test_fuzz_plans, and
   the generic artifact/snapshot round-trips by test_server — stencil is
   registered in [Engine.all_backends] and rides those for free. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage
open Qcomp_server
module Stencil = Qcomp_stencil.Stencil

let check = Alcotest.check

let make_db ?(target = Qcomp_vm.Target.x64) () =
  let db = Engine.create_db ~mem_size:(1 lsl 25) target in
  let t =
    Schema.make "t"
      [ ("id", Schema.Int64); ("grp", Schema.Int32); ("amt", Schema.Decimal 2);
        ("tag", Schema.Str) ]
  in
  let _ =
    Engine.add_table db t ~rows:200 ~seed:7L
      [| Datagen.Serial 0; Datagen.Uniform (0, 7);
         Datagen.DecimalRange (-400, 4000); Datagen.Words (Datagen.word_pool, 2) |]
  in
  db

let scan = Algebra.Scan { table = "t"; filter = None }

let plans =
  [
    ("filter", Algebra.Filter { input = scan; pred = Expr.(col 1 >% int32 3) });
    ( "agg",
      Algebra.Group_by
        {
          input = scan;
          keys = [ Expr.col 1 ];
          aggs =
            [ Algebra.Count_star; Algebra.Sum (Expr.col 0);
              Algebra.Avg (Expr.col 2) ];
        } );
    ( "join",
      Algebra.Hash_join
        {
          build = Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 2) };
          probe = scan;
          build_keys = [ Expr.col 1 ];
          probe_keys = [ Expr.col 1 ];
        } );
    ( "sort",
      Algebra.Order_by
        { input = scan; keys = [ (Expr.col 0, Algebra.Desc) ]; limit = Some 12 } );
  ]

(* ---------------- library integrity ---------------- *)

(* the dense numbering and its inverse must agree on every code: a skew
   here would make the miss path rebuild the wrong stencil *)
let numbering_test =
  Alcotest.test_case "key_of_code inverts key_code on every code" `Quick
    (fun () ->
      for c = 0 to Stencil.nkeys - 1 do
        let c' = Stencil.key_code Stencil.key_of_code.(c) in
        if c' <> c then Alcotest.failf "code %d maps to key with code %d" c c'
      done)

(* every prewarmed stencil: non-empty (bar hole-free forwarding no-ops),
   padded for the word-copy loop, and all hole offsets inside the true
   code length *)
let holes_test =
  Alcotest.test_case "per-op stencils: padding and hole bounds" `Quick
    (fun () ->
      Stencil.prewarm ();
      let seen = ref 0 in
      for c = 0 to Stencil.ncodes - 1 do
        let s = Stencil.dense_x64.(c) in
        if s != Stencil.dummy_stencil then begin
          incr seen;
          let cap = Bytes.length s.Stencil.s_code in
          (* a forwarding no-store variant of a pure copy (sext of a
             canonical value, trunc to i64) is legitimately empty: its
             operand already sits in rax. It must then have no holes. *)
          if s.Stencil.s_len <= 0
             && (c mod Stencil.nvariants = 0 || Array.length s.Stencil.s_h32 > 0
                 || Array.length s.Stencil.s_rest > 0)
          then Alcotest.failf "code %d: empty stencil" c;
          if cap < 64 || cap land 7 <> 0 || cap < s.Stencil.s_len then
            Alcotest.failf "code %d: bad padding (%d for %d)" c cap
              s.Stencil.s_len;
          Array.iter
            (fun p ->
              let off = p lsr 3 and arg = p land 7 in
              if off + 4 > s.Stencil.s_len || arg < 0 then
                Alcotest.failf "code %d: h32 hole at %d out of bounds" c off)
            s.Stencil.s_h32;
          Array.iter
            (fun h ->
              let last =
                match h with
                | Stencil.H32 (o, _) | Stencil.Htgt (o, _) -> o + 4
                | Stencil.H64 (o, _) | Stencil.Hsym (o, _) -> o + 8
              in
              if last > s.Stencil.s_len then
                Alcotest.failf "code %d: hole past code end" c)
            s.Stencil.s_rest
        end
      done;
      check Alcotest.bool "prewarm populated a real library" true (!seen > 150))

(* the packed flat library must describe exactly the same bytes and holes
   as the per-stencil records it was folded from, every prewarmed variant
   must fit the packing (a field overflow would silently push it onto the
   slow path), and every packed field must decode to what was packed *)
let flat_coherence_test =
  Alcotest.test_case "flat library mirrors the stencil records" `Quick
    (fun () ->
      Stencil.prewarm ();
      let fl = !Stencil.flat_x64 in
      let covered = ref 0 in
      for c = 0 to Stencil.ncodes - 1 do
        let w = fl.Stencil.fl_meta.(c) in
        if w <> 0 then begin
          incr covered;
          let s = Stencil.dense_x64.(c) in
          if s == Stencil.dummy_stencil then
            Alcotest.failf "code %d: flat entry without a record" c;
          let n = Stencil.fl_len w and off = Stencil.fl_off w in
          if n <> s.Stencil.s_len then
            Alcotest.failf "code %d: flat len %d <> %d" c n s.Stencil.s_len;
          (* the instantiation loop copies a 32- or 64-byte window, or the
             length rounded up to words *)
          let window = if n <= 32 then 32 else if n <= 64 then 64 else (n + 7) land -8 in
          if off + window > Bytes.length fl.Stencil.fl_pool
          then Alcotest.failf "code %d: pool window at %d out of range" c off;
          if
            not
              (Bytes.equal
                 (Bytes.sub fl.Stencil.fl_pool off n)
                 (Bytes.sub s.Stencil.s_code 0 n))
          then Alcotest.failf "code %d: flat pool bytes differ" c;
          let hc = Stencil.fl_count w and h0 = Stencil.fl_h0 w in
          if hc <> Array.length s.Stencil.s_h32 then
            Alcotest.failf "code %d: flat hole count %d <> %d" c hc
              (Array.length s.Stencil.s_h32);
          if h0 + hc > Array.length fl.Stencil.fl_h32 then
            Alcotest.failf "code %d: hole range past fl_h32" c;
          for k = 0 to hc - 1 do
            if fl.Stencil.fl_h32.(h0 + k) <> s.Stencil.s_h32.(k) then
              Alcotest.failf "code %d: flat hole %d differs" c k
          done;
          (* a lone argument-0 H64 or Htgt hole rides in the word itself;
             every other non-H32 hole goes through [fl_rest] *)
          let h64 = Stencil.fl_h64 w and tgt = Stencil.fl_tgt w in
          (match s.Stencil.s_rest with
          | [| Stencil.H64 (o, 0) |] when o < 32 ->
              if h64 <> o || tgt >= 0 then
                Alcotest.failf "code %d: H64 offset %d <> %d" c h64 o
          | [| Stencil.Htgt (o, 0) |] when o < 32 ->
              if tgt <> o || h64 >= 0 then
                Alcotest.failf "code %d: Htgt offset %d <> %d" c tgt o
          | _ ->
              if h64 >= 0 || tgt >= 0 then
                Alcotest.failf "code %d: spurious H64/Htgt field" c);
          let has_rest = h64 < 0 && tgt < 0 && Array.length s.Stencil.s_rest > 0 in
          if Stencil.fl_has_rest w <> has_rest then
            Alcotest.failf "code %d: rest flag differs" c;
          if has_rest && fl.Stencil.fl_rest.(c) != s.Stencil.s_rest then
            Alcotest.failf "code %d: rest holes differ" c;
          if
            Stencil.fl_pack ~count:hc ~rest:has_rest ~h0 ~len:n ~h64 ~tgt ~off <> w
          then Alcotest.failf "code %d: packed word does not round-trip" c
        end
      done;
      List.iter
        (fun c ->
          if fl.Stencil.fl_meta.(c) = 0 then
            Alcotest.failf "prewarmed code %d missing from the flat library" c)
        Stencil.prewarm_codes;
      check Alcotest.int "flat library holds exactly the prewarmed set"
        (List.length Stencil.prewarm_codes) !covered;
      (* the extreme field values survive packing *)
      let w =
        Stencil.fl_pack ~count:7 ~rest:true ~h0:0xFFFF ~len:0x3FF ~h64:31 ~tgt:(-1)
          ~off:(1 lsl 24)
      in
      check Alcotest.(list int) "extreme fields round-trip"
        [ 7; 0xFFFF; 0x3FF; 31; -1; 1 lsl 24 ]
        [ Stencil.fl_count w; Stencil.fl_h0 w; Stencil.fl_len w; Stencil.fl_h64 w;
          Stencil.fl_tgt w; Stencil.fl_off w ];
      check Alcotest.bool "rest flag survives" true (Stencil.fl_has_rest w);
      let w =
        Stencil.fl_pack ~count:0 ~rest:false ~h0:0 ~len:1 ~h64:(-1) ~tgt:31
          ~off:(1 lsl 24)
      in
      check Alcotest.(list int) "target field round-trips"
        [ -1; 31; 1 lsl 24 ]
        [ Stencil.fl_h64 w; Stencil.fl_tgt w; Stencil.fl_off w ])

(* prewarming is once per process: a second call (every [Engine.create_db]
   makes one) must not rebuild or repack the library *)
let prewarm_once_test =
  Alcotest.test_case "second prewarm keeps the same flat library" `Quick
    (fun () ->
      Stencil.prewarm ();
      let fl = !Stencil.flat_x64 and lib = Stencil.library_size () in
      Stencil.prewarm ();
      ignore (make_db ());
      check Alcotest.bool "same flat record" true (!Stencil.flat_x64 == fl);
      check Alcotest.int "no stencils rebuilt" lib (Stencil.library_size ()))

(* ---------------- artifact provenance ---------------- *)

let artifact_stats_test =
  Alcotest.test_case "artifact: provenance, stencil stats, determinism"
    `Quick (fun () ->
      let db = make_db () in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "join" plans) in
      let compile =
        match Qcomp_backend.Backend.compile_artifact Engine.stencil with
        | Some f -> f
        | None -> Alcotest.fail "stencil produces no artifact"
      in
      let art =
        compile ~timing ~target:db.Engine.target ~registry:db.Engine.registry
          cq.Qcomp_codegen.Codegen.modul
      in
      check Alcotest.string "backend" "stencil"
        art.Qcomp_backend.Artifact.a_backend;
      let stat k = List.assoc_opt k art.Qcomp_backend.Artifact.a_stats in
      (match stat "stencils" with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no stencil count in artifact stats");
      (match stat "stencil_library" with
      | Some n when n > 150 -> ()
      | _ -> Alcotest.fail "library size missing from artifact stats");
      (* blit-and-patch is deterministic: same module, same bytes *)
      let art2 =
        compile ~timing ~target:db.Engine.target ~registry:db.Engine.registry
          cq.Qcomp_codegen.Codegen.modul
      in
      check Alcotest.bool "byte-identical recompile" true
        (Bytes.equal art.Qcomp_backend.Artifact.a_text
           art2.Qcomp_backend.Artifact.a_text))

(* ---------------- tier ladder and cost model ---------------- *)

let ladder_test =
  Alcotest.test_case "stencil is the first native rung on x64 only" `Quick
    (fun () ->
      let names db = List.map fst (Engine.tier_ladder db) in
      let x64 = names (make_db ()) in
      (match x64 with
      | "interpreter" :: "stencil" :: rest ->
          check Alcotest.bool "directemit still above stencil" true
            (List.mem "directemit" rest)
      | _ ->
          Alcotest.failf "x64 ladder starts %s"
            (String.concat " -> " x64));
      let a64 = names (make_db ~target:Qcomp_vm.Target.a64 ()) in
      check Alcotest.bool "no stencil rung on a64" false
        (List.mem "stencil" a64))

let costmodel_test =
  Alcotest.test_case "cost model prices stencil between its neighbours"
    `Quick (fun () ->
      let db = make_db () in
      let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "agg" plans) in
      let m = cq.Qcomp_codegen.Codegen.modul in
      let sec b = Costmodel.compile_seconds ~backend:b m in
      check Alcotest.bool "stencil compile cost positive" true (sec "stencil" > 0.0);
      check Alcotest.bool "stencil compiles cheaper than directemit" true
        (sec "stencil" < sec "directemit");
      check Alcotest.bool "stencil executes faster than the interpreter" true
        (Costmodel.exec_rate db.Engine.target "stencil"
        > Costmodel.exec_rate db.Engine.target "interpreter");
      check Alcotest.bool "stencil executes slower than directemit" true
        (Costmodel.exec_rate db.Engine.target "stencil"
        < Costmodel.exec_rate db.Engine.target "directemit"))

(* ---------------- snapshot versioning ---------------- *)

(* the stencil-library version is folded into each record's key_v: a
   record whose key was written by a different library build must be
   rejected at load, never blitted with the wrong hole protocol. We
   simulate the skew by rewriting the stored key (and fixing up the
   payload CRC so only the key check can object). *)
let snapshot_version_test =
  Alcotest.test_case "snapshot with a foreign library key fails loud" `Quick
    (fun () ->
      let file = Filename.temp_file "qcomp_test_stencil" ".qcss" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let db = make_db () in
          let cache = Code_cache.create ~capacity:4 in
          let e, _ =
            Code_cache.get_or_compile cache db ~backend:Engine.stencil
              ~name:"q" (List.assoc "agg" plans)
          in
          ignore (Code_cache.force cache db e);
          Code_cache.save cache file;
          (* sanity: the pristine snapshot loads *)
          ignore (Code_cache.load ~capacity:4 ~db:(make_db ()) file);
          let image =
            let ic = open_in_bin file in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let b = Bytes.of_string image in
          (* header: magic(4) version(4) target(4+len) count(4) paylen(4);
             the first record leads with its i64 key_v *)
          let tlen = Int32.to_int (Bytes.get_int32_le b 8) in
          let payload_off = 20 + tlen in
          Bytes.set b payload_off
            (Char.chr (Char.code (Bytes.get b payload_off) lxor 0x5A));
          let crc = ref 0xC5_C5_C5L in
          for i = payload_off to Bytes.length b - 9 do
            crc := Qcomp_support.Hashes.crc32c_byte !crc (Char.code (Bytes.get b i))
          done;
          Bytes.set_int64_le b (Bytes.length b - 8) !crc;
          let oc = open_out_bin file in
          output_bytes oc b;
          close_out oc;
          match Code_cache.load ~capacity:4 ~db:(make_db ()) file with
          | _ -> Alcotest.fail "foreign record key was accepted"
          | exception Invalid_argument _ -> ()))

let key_v_library_test =
  Alcotest.test_case "library version changes the snapshot key" `Quick
    (fun () ->
      let k v =
        Fingerprint.key_v ~backend_version:v ~version:1 ~backend:"stencil"
          ~target:"x86-64" scan
      in
      check Alcotest.bool "v and v+1 differ" false
        (Int64.equal
           (k Stencil.library_version)
           (k (Stencil.library_version + 1)));
      check Alcotest.bool "versioned differs from unversioned" false
        (Int64.equal
           (k Stencil.library_version)
           (Fingerprint.key_v ~version:1 ~backend:"stencil" ~target:"x86-64"
              scan)))

(* ---------------- forwarding rules ---------------- *)

(* Each case is a small hand-built function that tries to break one rule
   of the rax forwarding discipline: rax is only trusted within one
   straight-line run, and a store may only be dropped for a value whose
   single use is the very next stencil, taking it in rax. Each runs over
   a set of arguments against the interpreter, and must execute fewer
   instructions than the always-spill emitter did (pinned below). *)
module Func = Qcomp_ir.Func
module Builder = Qcomp_ir.Builder
module Ty = Qcomp_ir.Ty
module Op = Qcomp_ir.Op

let i64 = Ty.I64

(* f(a, b) = (a + b) * 3 - (a + b): the sum has two uses, the first of
   them the very next instruction *)
let case_two_uses () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let three = Builder.const_i64 b 3L in
  let v = Builder.add b i64 (Builder.arg b 0) (Builder.arg b 1) in
  let w = Builder.mul b i64 v three in
  Builder.ret b (Builder.sub b i64 w v);
  m

(* the sum is defined in the entry block and used only in a later one *)
let case_later_block () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let v = Builder.add b i64 (Builder.arg b 0) (Builder.arg b 1) in
  let next = Builder.new_block b in
  Builder.br b next;
  Builder.switch_to b next;
  Builder.ret b (Builder.xor b i64 v (Builder.arg b 1));
  m

(* sum of i * b for i in [0, a): both back-edge values feed only a phi *)
let case_loop_phi () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let n = Builder.arg b 0 and k = Builder.arg b 1 in
  let zero = Builder.const_i64 b 0L in
  let entry = Builder.current_block b in
  let head = Builder.new_block b and body = Builder.new_block b
  and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i n) ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let acc' = Builder.add b i64 acc (Builder.mul b i64 i k) in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:zero;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  m

(* a - b is live across a runtime call that returns in rax *)
let case_call () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let v = Builder.sub b i64 (Builder.arg b 0) (Builder.arg b 1) in
  let h =
    Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64
      [ Builder.arg b 0; Builder.arg b 1 ]
  in
  Builder.ret b (Builder.add b i64 h v);
  m

(* i128 stencils between a scalar and its use: they pass their low lane
   through rax *)
let case_i128 () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let v = Builder.add b i64 a0 a1 in
  let w = Builder.sext b Ty.I128 a1 in
  let z = Builder.mul b Ty.I128 w w in
  let r = Builder.xor b i64 v a0 in
  Builder.ret b (Builder.add b i64 r (Builder.trunc b i64 z));
  m

(* a parameter hole, bound at link time, feeding the next op in rax *)
let case_param () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let p = Builder.param b i64 0 in
  let v = Builder.sub b i64 p (Builder.arg b 0) in
  Builder.ret b (Builder.mul b i64 v (Builder.arg b 1));
  m

(* branches on compares computed right before them: a fused integer
   compare, a float compare and an isnull taken in rax *)
let case_condbr () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |] in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let t1 = Builder.new_block b and e1 = Builder.new_block b in
  let t2 = Builder.new_block b and e2 = Builder.new_block b in
  let t3 = Builder.new_block b and e3 = Builder.new_block b in
  Builder.condbr b (Builder.cmp b Op.Sgt a1 a0) ~then_:t1 ~else_:e1;
  Builder.switch_to b t1;
  Builder.ret b (Builder.const_i64 b 1L);
  Builder.switch_to b e1;
  let fa = Builder.emit b ~op:Op.Sitofp ~ty:Ty.F64 ~x:a0 () in
  let fb = Builder.emit b ~op:Op.Sitofp ~ty:Ty.F64 ~x:a1 () in
  Builder.condbr b (Builder.fcmp b Op.Slt fa fb) ~then_:t2 ~else_:e2;
  Builder.switch_to b t2;
  Builder.ret b (Builder.const_i64 b 2L);
  Builder.switch_to b e2;
  Builder.condbr b (Builder.isnull b (Builder.sub b i64 a0 a1)) ~then_:t3 ~else_:e3;
  Builder.switch_to b t3;
  Builder.ret b (Builder.const_i64 b 3L);
  Builder.switch_to b e3;
  Builder.ret b (Builder.const_i64 b 4L);
  m

let arg_sets =
  [ [| 0L; 0L |]; [| 5L; 7L |]; [| 7L; 5L |]; [| -3L; 11L |]; [| 1000L; -1000L |];
    [| 3L; Int64.max_int |]; [| 12L; 12L |] ]

let param_values = [| Qcomp_backend.Artifact.Pv_int 42L |]

(* (name, function, instructions the always-spill emitter executed over
   [arg_sets]) *)
let cases =
  [ ("two uses", case_two_uses, 147); ("later block", case_later_block, 105);
    ("loop phi", case_loop_phi, 27876); ("runtime call", case_call, 140);
    ("i128 pair", case_i128, 280); ("param hole", case_param, 119);
    ("condbr on compares", case_condbr, 219) ]

(* run [f] over [arg_sets] on [backend]: results and executed instructions *)
let run_case db backend mk =
  let m = mk () in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let emu = db.Engine.emu in
  let params =
    if Qcomp_backend.Artifact.params_of_module m = [||] then [||] else param_values
  in
  let cm =
    Qcomp_backend.Backend.compile_module backend ~params ~timing ~emu
      ~registry:db.Engine.registry ~unwind:db.Engine.unwind m
  in
  let addr = Int64.to_int (Qcomp_backend.Backend.find_fn cm "f") in
  Qcomp_vm.Emu.reset_counters emu;
  let results = List.map (fun args -> fst (Qcomp_vm.Emu.call emu ~addr ~args)) arg_sets in
  let insts = Qcomp_vm.Emu.instructions_executed emu in
  Engine.dispose_module db cm;
  (results, insts)

let forwarding_tests =
  List.map
    (fun (name, mk, spill_insts) ->
      Alcotest.test_case ("forwarding: " ^ name) `Quick (fun () ->
          let db = Engine.create_db ~mem_size:(1 lsl 22) Qcomp_vm.Target.x64 in
          let expect, _ = run_case db Engine.interpreter mk in
          let got, insts = run_case db Engine.stencil mk in
          check Alcotest.(list int64) "results = interpreter" expect got;
          if insts >= spill_insts then
            Alcotest.failf "%d instructions executed, always-spill took %d" insts
              spill_insts))
    cases

(* ---------------- parallel serving differential ---------------- *)

let parallel_test =
  Alcotest.test_case "static:stencil across 2 domains = interpreter" `Quick
    (fun () ->
      let expect =
        List.map
          (fun (nm, p) ->
            let timing = Qcomp_support.Timing.create ~enabled:false () in
            let r, _, _ =
              Engine.run_plan (make_db ()) ~backend:Engine.interpreter ~timing
                ~name:nm p
            in
            (nm, (Engine.checksum r.Engine.rows, r.Engine.output_count)))
          plans
      in
      let r =
        Server.run ~parallel:true (make_db ())
          {
            Server.default_config with
            Server.mode = Server.Static Engine.stencil;
            Server.workers = 2;
            Server.morsel = 32;
          }
          plans
      in
      List.iter
        (fun q ->
          let e = List.assoc q.Report.qm_name expect in
          check
            Alcotest.(pair int64 int)
            q.Report.qm_name e
            (q.Report.qm_checksum, q.Report.qm_rows))
        r.Report.r_queries)

let suite =
  [
    numbering_test; holes_test; flat_coherence_test; prewarm_once_test;
    artifact_stats_test;
    ladder_test; costmodel_test; snapshot_version_test; key_v_library_test;
    parallel_test;
  ]
  @ forwarding_tests
