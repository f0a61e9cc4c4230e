(* Cross-back-end differential tests: every compiling back-end must produce
   the interpreter's results on plans covering scans, joins, aggregation,
   strings, decimals and sorting — on both virtual targets. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let check = Alcotest.check

let make_db target =
  let db = Engine.create_db ~mem_size:(1 lsl 25) target in
  let t =
    Schema.make "t"
      [ ("id", Schema.Int64); ("grp", Schema.Int32); ("amt", Schema.Decimal 2);
        ("tag", Schema.Str); ("d", Schema.Date) ]
  in
  let dim = Schema.make "dim" [ ("k", Schema.Int32); ("name", Schema.Str) ] in
  let _ =
    Engine.add_table db t ~rows:300 ~seed:11L
      [| Datagen.Serial 0; Datagen.Uniform (0, 9); Datagen.DecimalRange (-500, 5000);
         Datagen.Words (Datagen.word_pool, 2); Datagen.DateRange (0, 1000) |]
  in
  let _ =
    Engine.add_table db dim ~rows:10 ~seed:12L
      [| Datagen.Serial 0; Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

let scan = Algebra.Scan { table = "t"; filter = None }

let plans =
  [
    ("filter", Algebra.Filter { input = scan; pred = Expr.(col 1 >% int32 5) });
    ( "project",
      Algebra.Project
        { input = scan; exprs = Expr.[ col 0 *% int64 3L; col 2 +% col 2; col 2 *% col 2 ] } );
    ( "agg",
      Algebra.Group_by
        {
          input = scan;
          keys = [ Expr.col 1 ];
          aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 2); Algebra.Avg (Expr.col 2) ];
        } );
    ( "join",
      Algebra.Hash_join
        {
          build = Algebra.Scan { table = "dim"; filter = None };
          probe = scan;
          build_keys = [ Expr.col 0 ];
          probe_keys = [ Expr.col 1 ];
        } );
    ( "sort",
      Algebra.Order_by
        { input = scan; keys = [ (Expr.col 2, Algebra.Desc) ]; limit = Some 17 } );
    ( "strings",
      Algebra.Group_by
        {
          input = Algebra.Filter { input = scan; pred = Expr.Like (Expr.col 3, "%a%") };
          keys = [ Expr.col 3 ];
          aggs = [ Algebra.Count_star ];
        } );
    ( "dates",
      Algebra.Filter
        { input = scan; pred = Expr.(Between (col 4, date 100, date 500)) } );
  ]

let run target backend plan =
  let db = make_db target in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let r, _, _ = Engine.run_plan db ~backend ~timing ~name:"q" plan in
  (Engine.checksum r.Engine.rows, r.Engine.output_count)

(* every compiling back-end of a target, by name; DirectEmit and the
   stencil back-end are x86-64-only, exactly like Umbra's *)
let backends target =
  List.filter_map
    (fun b ->
      if b == Engine.interpreter then None
      else Some (Qcomp_backend.Backend.name b, b))
    (Engine.all_backends target)

let backends_x64 = backends Qcomp_vm.Target.x64
let backends_a64 = backends Qcomp_vm.Target.a64

let differential target backends =
  List.concat_map
    (fun (pname, plan) ->
      let expect = run target Engine.interpreter plan in
      List.map
        (fun (bname, backend) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s/%s" target.Qcomp_vm.Target.name bname pname)
            `Slow (fun () ->
              let got = run target backend plan in
              check
                Alcotest.(pair int64 int)
                "matches interpreter" expect got))
        backends)
    plans

let unit_cases =
  [
    Alcotest.test_case "all back-ends report code and functions" `Quick (fun () ->
        let db = make_db Qcomp_vm.Target.x64 in
        let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "agg" plans) in
        List.iter
          (fun (name, b) ->
            let timing = Qcomp_support.Timing.create ~enabled:false () in
            let cm =
              Qcomp_backend.Backend.compile_module b ~timing ~emu:db.Engine.emu
                ~registry:db.Engine.registry ~unwind:db.Engine.unwind
                cq.Qcomp_codegen.Codegen.modul
            in
            check Alcotest.bool (name ^ " has functions") true
              (List.length cm.Qcomp_backend.Backend.cm_functions > 0);
            check Alcotest.bool (name ^ " nonzero code") true
              (cm.Qcomp_backend.Backend.cm_code_size > 0))
          backends_x64);
    Alcotest.test_case "fastisel reports fallback statistics" `Quick (fun () ->
        let db = make_db Qcomp_vm.Target.x64 in
        let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "agg" plans) in
        let timing = Qcomp_support.Timing.create ~enabled:false () in
        let cm =
          Qcomp_backend.Backend.compile_module Engine.llvm_cheap ~timing
            ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind
            cq.Qcomp_codegen.Codegen.modul
        in
        (* decimal aggregation forces i128 fallbacks, as in the paper *)
        check Alcotest.bool "i128 fallbacks counted" true
          (List.exists
             (fun (k, v) -> k = "fallback_i128" && v > 0)
             cm.Qcomp_backend.Backend.cm_stats));
    Alcotest.test_case "cranelift reports btree statistics" `Quick (fun () ->
        let db = make_db Qcomp_vm.Target.x64 in
        let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "join" plans) in
        let timing = Qcomp_support.Timing.create ~enabled:false () in
        let cm =
          Qcomp_backend.Backend.compile_module Engine.cranelift ~timing
            ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind
            cq.Qcomp_codegen.Codegen.modul
        in
        check Alcotest.bool "btree ops counted" true
          (List.exists
             (fun (k, v) -> k = "btree_ops" && v > 0)
             cm.Qcomp_backend.Backend.cm_stats));
    (* the serving pool's compile domains share LLVM's TargetMachine
       cache; a race there shows as a corrupted table or a crash, which
       no schedule can be forced to produce, so this exercises the
       concurrent path and pins that it yields the serial artifact *)
    Alcotest.test_case "llvm-opt compiles one module identically on several domains"
      `Quick (fun () ->
        let db = make_db Qcomp_vm.Target.x64 in
        let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "join" plans) in
        let gen = Option.get (Qcomp_backend.Backend.compile_artifact Engine.llvm_opt) in
        let compile () =
          gen ~timing:(Qcomp_support.Timing.create ~enabled:false ())
            ~target:Qcomp_vm.Target.x64 ~registry:db.Engine.registry
            cq.Qcomp_codegen.Codegen.modul
        in
        let serial = compile () in
        let domains = List.init 3 (fun _ -> Domain.spawn compile) in
        List.iteri
          (fun i d ->
            check Alcotest.bool (Printf.sprintf "domain %d artifact" i) true
              (Domain.join d = serial))
          domains);
    (* the cache is keyed by architecture: first compiles for x86-64 and
       AArch64 run side by side before any serial compile, so whichever
       key is still missing is built under concurrency *)
    Alcotest.test_case "llvm-opt compiles for both targets at once on several domains"
      `Quick (fun () ->
        let gen = Option.get (Qcomp_backend.Backend.compile_artifact Engine.llvm_opt) in
        let job target =
          let db = make_db target in
          let cq = Engine.plan_to_ir db ~name:"q" (List.assoc "agg" plans) in
          fun () ->
            gen ~timing:(Qcomp_support.Timing.create ~enabled:false ())
              ~target ~registry:db.Engine.registry cq.Qcomp_codegen.Codegen.modul
        in
        let jobs =
          List.map (fun t -> (t, job t))
            Qcomp_vm.Target.[ x64; a64; x64; a64 ]
        in
        let domains = List.map (fun (t, f) -> (t, f, Domain.spawn f)) jobs in
        List.iteri
          (fun i (t, f, d) ->
            let got = Domain.join d in
            check Alcotest.bool
              (Printf.sprintf "domain %d %s artifact" i t.Qcomp_vm.Target.name)
              true (got = f ()))
          domains);
  ]

(* ---- LLVM pipeline variants on micro plans ---- *)

(* One plan per lowering concern (integer/decimal filters, arithmetic,
   each aggregate over int/decimal/string keys, sort, LIKE, CASE), small
   enough that every non-default LLVM configuration can be checked
   against the interpreter on both targets. *)
let make_micro_db target =
  let db = Engine.create_db ~mem_size:(1 lsl 25) target in
  let t =
    Schema.make "t"
      [ ("id", Schema.Int64); ("grp", Schema.Int32); ("amt", Schema.Decimal 2);
        ("tag", Schema.Str) ]
  in
  let _ =
    Engine.add_table db t ~rows:500 ~seed:3L
      [| Datagen.Serial 0; Datagen.Uniform (0, 7); Datagen.DecimalRange (1, 9999);
         Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

let micro_plans =
  let group keys aggs = Algebra.Group_by { input = scan; keys; aggs } in
  [
    ("scan_filter_int", Algebra.Filter { input = scan; pred = Expr.(col 1 >% int32 3) });
    ("filter_dec", Algebra.Filter { input = scan; pred = Expr.(col 2 >% dec ~scale:2 5000) });
    ( "proj_arith",
      Algebra.Project
        { input = scan; exprs = Expr.[ col 0 +% int64 7L; col 2 *% int32 3; col 2 +% col 2 ] } );
    ("count_grp", group [ Expr.col 1 ] [ Algebra.Count_star ]);
    ("sum_int", group [ Expr.col 1 ] [ Algebra.Sum (Expr.col 0) ]);
    ("key_int64", group [ Expr.Cast (Expr.col 1, Sqlty.Int64) ] [ Algebra.Count_star ]);
    ("key_dec", group [ Expr.col 2 ] [ Algebra.Count_star ]);
    ("sum_dec", group [ Expr.col 1 ] [ Algebra.Sum (Expr.col 2) ]);
    ("avg_dec", group [ Expr.col 1 ] [ Algebra.Avg (Expr.col 2) ]);
    ("minmax", group [ Expr.col 1 ] [ Algebra.Min (Expr.col 0); Algebra.Max (Expr.col 2) ]);
    ("strkey", group [ Expr.col 3 ] [ Algebra.Count_star ]);
    ( "orderby",
      Algebra.Order_by
        {
          input = Algebra.Scan { table = "t"; filter = Some Expr.(col 1 =% int32 2) };
          keys = [ (Expr.col 2, Algebra.Desc) ];
          limit = Some 7;
        } );
    ("like", Algebra.Filter { input = scan; pred = Expr.(Like (col 3, "%a%")) });
    ( "case",
      Algebra.Project
        {
          input = scan;
          exprs =
            [ Expr.Case ([ (Expr.(col 1 <% int32 4), Expr.(col 2 *% int32 2)) ], Expr.dec ~scale:2 0) ];
        } );
  ]

let run_micro target backend plan =
  let db = make_micro_db target in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let r, _, cm = Engine.run_plan db ~backend ~timing ~name:"micro" plan in
  Engine.dispose_module db cm;
  (Engine.checksum r.Engine.rows, r.Engine.output_count)

module Orc = Qcomp_llvm.Orc

(* every configuration the default instances leave unexercised *)
let llvm_variants =
  let cheap name cfg = (name, Orc.backend ~name:"llvm-cheap" cfg) in
  let opt name cfg = (name, Orc.backend ~name:"llvm-opt" cfg) in
  [
    cheap "gisel-cheap" { Orc.cheap_config with Orc.isel = Orc.Isel_gisel };
    opt "gisel-opt" { Orc.opt_config with Orc.isel = Orc.Isel_gisel };
    opt "dag-fastra"
      { Orc.opt_config with Orc.optimize = false; greedy_ra = false; isel = Orc.Isel_dag };
    opt "o2-fastra" { Orc.opt_config with Orc.greedy_ra = false };
    cheap "pairs-as-struct" { Orc.cheap_config with Orc.pairs_as_struct = true };
    cheap "no-fastisel-crc32" { Orc.cheap_config with Orc.fastisel_crc32 = false };
  ]

let large_code_model =
  ("large-cm", Orc.backend ~name:"llvm-cheap" { Orc.cheap_config with Orc.code_model_large = true })

let micro_differential target variants =
  let tname = target.Qcomp_vm.Target.name in
  let expected =
    lazy (List.map (fun (p, plan) -> (p, run_micro target Engine.interpreter plan)) micro_plans)
  in
  List.map
    (fun (vname, backend) ->
      Alcotest.test_case
        (Printf.sprintf "llvm %s on %s: micro plans match interpreter" vname tname)
        `Slow
        (fun () ->
          List.iter
            (fun (pname, plan) ->
              check
                Alcotest.(pair int64 int)
                pname
                (List.assoc pname (Lazy.force expected))
                (run_micro target backend plan))
            micro_plans))
    variants

(* the large code model's absolute call immediate needs x86-64's movabs:
   AArch64 refuses it while compiling instead of emitting code that jumps
   to an unpatched address *)
let large_code_model_a64_refused =
  Alcotest.test_case "llvm large code model on aarch64 fails at compile time" `Quick
    (fun () ->
      let db = make_micro_db Qcomp_vm.Target.a64 in
      let cq = Engine.plan_to_ir db ~name:"micro" (List.assoc "count_grp" micro_plans) in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      match
        Qcomp_backend.Backend.compile_module (snd large_code_model) ~timing
          ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind
          cq.Qcomp_codegen.Codegen.modul
      with
      | _ -> Alcotest.fail "large code model compiled on aarch64"
      | exception Qcomp_vm.Asm.Encode_error _ -> ())

(* ---- phase attribution ---- *)

(* The top-level Timing phases of one compile_module: the breakdowns of
   Table I and Figs. 2, 4 and 5, including how the shared linker's time is
   attributed for each back-end. *)
let expected_phases =
  [
    ("interpreter", "Translate");
    ("stencil", "CodeGen Finalize UnwindInfo");
    ("directemit", "Analysis CodeGen Finalize UnwindInfo");
    ("cranelift", "IRGen IRPasses ISelPrepare ISel RegAlloc Emit Link");
    ( "llvm-cheap",
      "TargetMachine IRGen IRPasses ISel PHIElimination TwoAddress RegAlloc PrologEpilog \
       AsmPrinter ObjectEmit DestroyModule Link UnwindInfo" );
    ( "llvm-opt",
      "TargetMachine IRGen Optimize IRPasses ISel PHIElimination TwoAddress RegAlloc \
       PrologEpilog AsmPrinter ObjectEmit DestroyModule Link UnwindInfo" );
    ("gcc", "GenerateC Parse Optimize CodeGen Assembler Linker Dlopen UnwindInfo");
  ]

let jitlink_phases =
  [ "Link/Phase1-Alloc"; "Link/Phase2-Resolve"; "Link/Phase3-Apply"; "Link/Phase4-Lookup" ]

let phase_names target =
  Alcotest.test_case
    (Printf.sprintf "top-level phase names per back-end on %s" target.Qcomp_vm.Target.name)
    `Quick
    (fun () ->
      let q = List.hd (Experiments.queries_of Experiments.Tpch) in
      List.iter
        (fun b ->
          let name = Qcomp_backend.Backend.name b in
          let db = Experiments.make_db ~mem_size:(64 * 1024 * 1024) target Experiments.Tpch ~sf:1 in
          let cq = Engine.plan_to_ir db ~name:q.Qcomp_workloads.Spec.q_name q.Qcomp_workloads.Spec.q_plan in
          let timing = Qcomp_support.Timing.create () in
          let cm =
            Qcomp_backend.Backend.compile_module b ~timing ~emu:db.Engine.emu
              ~registry:db.Engine.registry ~unwind:db.Engine.unwind
              cq.Qcomp_codegen.Codegen.modul
          in
          Engine.dispose_module db cm;
          check Alcotest.string name (List.assoc name expected_phases)
            (String.concat " " (List.map fst (Qcomp_support.Timing.flat timing)));
          let paths = List.map (fun (p, _, _) -> p) (Qcomp_support.Timing.entries timing) in
          check Alcotest.bool (name ^ " JITLink phases")
            (String.length name > 4 && String.sub name 0 4 = "llvm")
            (List.for_all (fun p -> List.mem p paths) jitlink_phases))
        (Engine.all_backends target);
      (* an artifact with no undefined symbols gets no PLT and no GOT: the
         linked module owns no data block *)
      let open Qcomp_backend in
      let db = Engine.create_db ~mem_size:(1 lsl 21) target in
      let a = Qcomp_vm.Asm.create target in
      Qcomp_vm.Asm.emit a Qcomp_vm.Minst.Ret;
      let text = Qcomp_vm.Asm.finish a in
      let art =
        { Artifact.a_backend = "llvm-cheap"; a_target = target.Qcomp_vm.Target.name;
          a_text = text;
          a_syms = [ { Artifact.s_name = "g"; s_off = 0; s_size = Bytes.length text; s_defined = true } ];
          a_relocs = []; a_unwind = []; a_baked = []; a_params = [||]; a_stats = [];
          a_code_size = Bytes.length text }
      in
      let cm =
        Backend.link_artifact ~link:Backend.Jitlink ~timing:(Qcomp_support.Timing.create ())
          ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind art
      in
      check Alcotest.int "extern-free artifact: no GOT" 0 (List.length cm.Backend.cm_data_blocks);
      Engine.dispose_module db cm)

let suite =
  unit_cases
  @ [ phase_names Qcomp_vm.Target.x64; phase_names Qcomp_vm.Target.a64;
      large_code_model_a64_refused ]
  @ micro_differential Qcomp_vm.Target.x64 (llvm_variants @ [ large_code_model ])
  @ micro_differential Qcomp_vm.Target.a64 llvm_variants
  @ differential Qcomp_vm.Target.x64 backends_x64
  @ differential Qcomp_vm.Target.a64 backends_a64
