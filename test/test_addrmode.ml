(* Addressing modes in every optimizing selector, on both targets.

   A column read -- a load of [column + row * 8] -- must select one
   indexed load in SelectionDAG (LLVM-opt), FastISel (LLVM-cheap),
   GlobalISel, Cranelift's lowering and GCC's path through SelectionDAG
   and its textual assembler: no shift, multiply or lea left to compute
   the address. Scales that are no addressing-mode scale (16, the string
   cells; 12, a row of three words) must still read the right bytes, and
   an address that is also passed to a call must keep its value there.
   Every result is checked against the interpreter. *)

open Qcomp_engine
module Builder = Qcomp_ir.Builder
module Func = Qcomp_ir.Func
module Ty = Qcomp_ir.Ty
module Minst = Qcomp_vm.Minst
module Target = Qcomp_vm.Target
module Memory = Qcomp_vm.Memory
module Backend = Qcomp_backend.Backend
module Orc = Qcomp_llvm.Orc

let selectors =
  [
    ("SelectionDAG", Engine.llvm_opt);
    ("FastISel", Engine.llvm_cheap);
    ("GlobalISel", Orc.backend ~name:"llvm-opt" { Orc.opt_config with Orc.isel = Orc.Isel_gisel });
    ("Cranelift", Engine.cranelift);
    ("GCC", Engine.gcc);
  ]

let rows = 8

(* The column every case reads: [rows] cells of 16 bytes, each holding a
   short string in its SSO struct, so the 8-, 12- and 16-byte strides all
   read defined bytes and the call case hashes a valid string. *)
let make_column db =
  let mem = Engine.memory db in
  let col = Memory.alloc mem ~align:16 (rows * 16) in
  for r = 0 to rows - 1 do
    Qcomp_runtime.Sso.write mem ~addr:(col + (16 * r)) (Printf.sprintf "cell %d" (r * 37))
  done;
  col

(* f(row) over the column at [col] *)
let fn build col =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:Ty.I64 ~args:[| Ty.I64 |] in
  let base = Builder.const_ptr b (Int64.of_int col) in
  Builder.ret b (build b base (Builder.arg b 0));
  m

let column_read b base row =
  Builder.load b Ty.I64 (Builder.gep b base ~index:row ~scale:8 0) ~offset:0

let scale16 b base row =
  Builder.load b Ty.I64 (Builder.gep b base ~index:row ~scale:16 0) ~offset:8

let scale12 b base row =
  Builder.sext b Ty.I64 (Builder.load b Ty.I32 (Builder.gep b base ~index:row ~scale:12 0) ~offset:4)

(* the cell at [row + row] words: a scale every selector folds *)
let address_to_call b base row =
  let cell = Builder.gep b base ~index:(Builder.add b Ty.I64 row row) ~scale:8 0 in
  let word = Builder.load b Ty.I64 cell ~offset:0 in
  let hash = Builder.call b ~name:"umbra_strHash" ~args_ty:[| Ty.Ptr |] ~ret:Ty.I64 [ cell ] in
  Builder.xor b Ty.I64 word hash

let run db backend m =
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let cm =
    Backend.compile_module backend ~timing ~emu:db.Engine.emu ~registry:db.Engine.registry
      ~unwind:db.Engine.unwind m
  in
  let addr = Int64.to_int (Backend.find_fn cm "f") in
  let results =
    List.init rows (fun r -> fst (Qcomp_vm.Emu.call db.Engine.emu ~addr ~args:[| Int64.of_int r |]))
  in
  Engine.dispose_module db cm;
  results

let code db backend m =
  let artifact = Option.get (Backend.compile_artifact backend) in
  let a =
    artifact ~timing:(Qcomp_support.Timing.create ~enabled:false ()) ~target:(Qcomp_vm.Emu.target_of db.Engine.emu)
      ~registry:db.Engine.registry m
  in
  Array.to_list (fst (Qcomp_vm.Emu.decode_all (Qcomp_vm.Emu.target_of db.Engine.emu) a.Qcomp_backend.Artifact.a_text))

let pp target i = Format.asprintf "%a" (Minst.pp target) i

let same_as_interpreter db backend build =
  let col = make_column db in
  Alcotest.(check (list int64))
    "results = interpreter"
    (run db Engine.interpreter (fn build col))
    (run db backend (fn build col))

(* the column read's memory accesses off the stack: one indexed load of
   8 bytes at scale 8, and nothing computing an address *)
let one_indexed_load (target : Target.t) db backend =
  let col = make_column db in
  let insts = code db backend (fn column_read col) in
  let loads =
    List.filter
      (function
        | Minst.Ld { base; _ } -> base <> target.Target.sp
        | Minst.Ldx _ -> true
        | _ -> false)
      insts
  in
  (match loads with
  | [ Minst.Ldx { scale = 8; size = 8; _ } ] -> ()
  | _ ->
      Alcotest.failf "expected one indexed load, got [%s]"
        (String.concat "; " (List.map (pp target) loads)));
  List.iter
    (fun i ->
      match i with
      | Minst.Alu_rr ((Shl | Mul), _, _)
      | Minst.Alu_ri ((Shl | Mul), _, _)
      | Minst.Alu_rrr ((Shl | Mul), _, _, _)
      | Minst.Alu_rri ((Shl | Mul), _, _, _)
      | Minst.Lea _ ->
          Alcotest.failf "address arithmetic left: %s" (pp target i)
      | _ -> ())
    insts

let suite =
  List.concat_map
    (fun (target : Target.t) ->
      List.concat_map
        (fun (sel, backend) ->
          let case what f =
            Alcotest.test_case (Printf.sprintf "%s/%s: %s" target.Target.name sel what) `Quick (fun () ->
                f (Engine.create_db ~mem_size:(1 lsl 22) target) backend)
          in
          [
            case "a column read selects one indexed load" (one_indexed_load target);
            case "a column read matches the interpreter" (fun db b -> same_as_interpreter db b column_read);
            case "scale 16 falls back correctly" (fun db b -> same_as_interpreter db b scale16);
            case "scale 12 falls back correctly" (fun db b -> same_as_interpreter db b scale12);
            case "an address also passed to a call keeps its value" (fun db b ->
                same_as_interpreter db b address_to_call);
          ])
        selectors)
    [ Target.x64; Target.a64 ]

(* [qcomp dis] prints what {!Experiments.disassemble} decodes: TPC-H q06's
   scan reads its columns with indexed loads on every optimizing back-end
   of x64, and the -O2-class ones jump to no instruction that directly
   follows the jump *)
let dis_case =
  Alcotest.test_case "qcomp dis: q06's scan uses indexed loads; -O2 code has no fall-through jumps"
    `Quick (fun () ->
      List.iter
        (fun (backend, folds_branches) ->
          let name = Backend.name backend in
          let fns = Experiments.disassemble Target.x64 Experiments.Tpch backend ~query:"q06" () in
          let scan =
            match List.filter (fun (f, _) -> String.ends_with ~suffix:"_scan" f) fns with
            | [ (_, code) ] -> code
            | _ -> Alcotest.failf "%s: no single scan function" name
          in
          if not (List.exists (fun (_, i) -> match i with Minst.Ldx _ -> true | _ -> false) scan)
          then Alcotest.failf "%s: no indexed load in q06's scan" name;
          if folds_branches then
            List.iteri
              (fun k (_, i) ->
                match (i, List.nth_opt scan (k + 1)) with
                | Minst.Jmp t, Some (next, _) when t = next ->
                    Alcotest.failf "%s: jmp .+%d falls through" name t
                | _ -> ())
              scan)
        [ (Engine.cranelift, true); (Engine.llvm_cheap, false); (Engine.llvm_opt, true); (Engine.gcc, true) ])

let suite = suite @ [ dis_case ]
