(* Produce/consume code generation: plan -> Umbra IR modules. Checks the
   module structure (pipelines, functions, verification) rather than
   execution, which the back-end tests cover. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage
module Codegen = Qcomp_codegen.Codegen

let check = Alcotest.check

let make_db () =
  let db = Engine.create_db ~mem_size:(1 lsl 24) Qcomp_vm.Target.x64 in
  let t =
    Schema.make "t"
      [ ("id", Schema.Int64); ("grp", Schema.Int32); ("amt", Schema.Decimal 2);
        ("tag", Schema.Str) ]
  in
  let d = Schema.make "d" [ ("k", Schema.Int32); ("name", Schema.Str) ] in
  let _ =
    Engine.add_table db t ~rows:100 ~seed:1L
      [| Datagen.Serial 0; Datagen.Uniform (0, 7); Datagen.DecimalRange (0, 999);
         Datagen.Words (Datagen.word_pool, 1) |]
  in
  let _ =
    Engine.add_table db d ~rows:8 ~seed:2L
      [| Datagen.Serial 0; Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

let compile plan =
  let db = make_db () in
  Engine.plan_to_ir db ~name:"q" plan

let scan = Algebra.Scan { table = "t"; filter = None }

let suite =
  [
    Alcotest.test_case "scan+filter is one pipeline" `Quick (fun () ->
        let cq = compile (Algebra.Filter { input = scan; pred = Expr.(col 1 >% int32 3) }) in
        check Alcotest.int "pipelines" 1 cq.Codegen.num_pipelines;
        Qcomp_ir.Verify.verify_module cq.Codegen.modul);
    Alcotest.test_case "group_by adds a pipeline" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Group_by
               { input = scan; keys = [ Expr.col 1 ]; aggs = [ Algebra.Count_star ] })
        in
        check Alcotest.int "pipelines" 2 cq.Codegen.num_pipelines;
        Qcomp_ir.Verify.verify_module cq.Codegen.modul);
    Alcotest.test_case "join produces build and probe pipelines" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Hash_join
               {
                 build = Algebra.Scan { table = "d"; filter = None };
                 probe = scan;
                 build_keys = [ Expr.col 0 ];
                 probe_keys = [ Expr.col 1 ];
               })
        in
        check Alcotest.bool ">= 2 pipelines" true (cq.Codegen.num_pipelines >= 2);
        Qcomp_ir.Verify.verify_module cq.Codegen.modul);
    Alcotest.test_case "every function name is unique" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Order_by
               {
                 input =
                   Algebra.Group_by
                     {
                       input = scan;
                       keys = [ Expr.col 1 ];
                       aggs = [ Algebra.Sum (Expr.col 2); Algebra.Avg (Expr.col 2) ];
                     };
                 keys = [ (Expr.col 1, Algebra.Asc) ];
                 limit = Some 5;
               })
        in
        let names = ref [] in
        Qcomp_support.Vec.iter
          (fun (f : Qcomp_ir.Func.t) -> names := f.Qcomp_ir.Func.name :: !names)
          cq.Codegen.modul.Qcomp_ir.Func.funcs;
        check Alcotest.int "unique" (List.length !names)
          (List.length (List.sort_uniq compare !names)));
    Alcotest.test_case "steps reference existing functions" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Group_by
               { input = scan; keys = [ Expr.col 1 ]; aggs = [ Algebra.Count_star ] })
        in
        let names = ref [] in
        Qcomp_support.Vec.iter
          (fun (f : Qcomp_ir.Func.t) -> names := f.Qcomp_ir.Func.name :: !names)
          cq.Codegen.modul.Qcomp_ir.Func.funcs;
        List.iter
          (fun (s : Codegen.step) ->
            check Alcotest.bool ("step " ^ s.Codegen.fn_name) true
              (List.mem s.Codegen.fn_name !names))
          cq.Codegen.steps);
    Alcotest.test_case "sort comparator is a fixup target" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Order_by
               { input = scan; keys = [ (Expr.col 2, Algebra.Desc) ]; limit = None })
        in
        check Alcotest.bool "has fn_ptr fixups" true
          (List.length cq.Codegen.fn_ptr_fixups > 0));
    Alcotest.test_case "unused columns are not loaded" `Quick (fun () ->
        (* project only col 0: generated module must not reference the
           string column's base address (needed-column analysis) *)
        let cq1 = compile (Algebra.Project { input = scan; exprs = [ Expr.col 0 ] }) in
        let cq2 =
          compile (Algebra.Project { input = scan; exprs = [ Expr.col 0; Expr.col 3 ] })
        in
        let insts m =
          let n = ref 0 in
          Qcomp_support.Vec.iter
            (fun (f : Qcomp_ir.Func.t) -> n := !n + Qcomp_ir.Func.num_insts f)
            m.Qcomp_ir.Func.funcs;
          !n
        in
        check Alcotest.bool "narrow plan is smaller" true
          (insts cq1.Codegen.modul < insts cq2.Codegen.modul));
    Alcotest.test_case "state size covers all pipelines" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Group_by
               { input = scan; keys = [ Expr.col 1 ]; aggs = [ Algebra.Count_star ] })
        in
        check Alcotest.bool "nonzero state" true (cq.Codegen.state_size > 0);
        check Alcotest.bool "output slot inside state" true
          (cq.Codegen.output_slot >= 0 && cq.Codegen.output_slot < cq.Codegen.state_size));
    Alcotest.test_case "output types match the plan" `Quick (fun () ->
        let cq =
          compile
            (Algebra.Group_by
               { input = scan; keys = [ Expr.col 1 ];
                 aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 2) ] })
        in
        check Alcotest.int "3 outputs" 3 (Array.length cq.Codegen.output_tys));
    Alcotest.test_case "q01 keeps five sums and one count per group" `Quick (fun () ->
        (* sum(qty), sum(price), sum(disc_price), sum(charge), avg(qty),
           avg(price), avg(disc), count( * ): the averages reuse the first
           two sums and the count *)
        let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
        let q01 =
          List.find
            (fun (q : Qcomp_workloads.Spec.query) -> q.Qcomp_workloads.Spec.q_name = "q01")
            (Experiments.queries_of Experiments.Tpch)
        in
        let input, aggs =
          match q01.Qcomp_workloads.Spec.q_plan with
          | Algebra.Order_by { input = Algebra.Group_by { input; aggs; _ }; _ } -> (input, aggs)
          | _ -> Alcotest.fail "q01 is not order_by(group_by)"
        in
        let states, _ = Codegen.agg_states (Algebra.output_tys db.Engine.catalog input) aggs in
        let count kind = List.length (List.filter (fun s -> s.Codegen.s_kind = kind) states) in
        check Alcotest.int "output aggregates" 8 (List.length aggs);
        check Alcotest.int "sums" 5 (count Codegen.Sum);
        check Alcotest.int "counts" 1 (count Codegen.Count);
        check Alcotest.int "states" 6 (List.length states);
        (* two 16-byte string keys, five 16-byte decimal sums, one count *)
        let cq = Engine.plan_to_ir db ~name:"q01" q01.Qcomp_workloads.Spec.q_plan in
        let payloads =
          List.concat_map
            (fun (st : Codegen.step) ->
              List.filter_map
                (function
                  | Codegen.Sink_ht { ht_payload; ht_merge = Some _; _ } -> Some ht_payload
                  | _ -> None)
                st.Codegen.sinks)
            cq.Codegen.steps
        in
        check Alcotest.(list int) "aggregate payload bytes" [ 120 ] payloads);
    Alcotest.test_case "filter inside scan fuses (no extra pipeline)" `Quick
      (fun () ->
        let cq =
          compile
            (Algebra.Scan { table = "t"; filter = Some Expr.(col 1 =% int32 2) })
        in
        check Alcotest.int "1 pipeline" 1 cq.Codegen.num_pipelines);
  ]
