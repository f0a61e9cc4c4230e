(* Parameterized-plan specialization: the normalizer (literal extraction
   and re-substitution), wire transport of Param nodes, shape-key
   fingerprints, the param-version fold of snapshot keys, and the
   differential that matters — a shape compiled once with parameter holes
   and bound per literal vector must produce byte-identical results to
   compiling each literal-bearing plan whole, on every param-capable
   back-end and through both serving drivers. *)

open Qcomp_support
open Qcomp_engine
open Qcomp_server
open Qcomp_plan

let check = Alcotest.check

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* One plan per Zipf template at two literal indices: every eligible
   literal kind is covered (Date/Decimal in zrev, Int32 in zsize, Date in
   zord, SSO-short Str in zseg). *)
let variant i k =
  let tname, mk = Qcomp_workloads.Paramgen.templates.(i) in
  (Printf.sprintf "%s_%d" tname k, mk k)

let template_indices =
  List.init (Array.length Qcomp_workloads.Paramgen.templates) Fun.id

let sample_plans =
  List.concat_map (fun i -> [ variant i 0; variant i 7 ]) template_indices

let to_pv = function
  | Paramize.V_int (_, v) -> Qcomp_backend.Artifact.Pv_int v
  | Paramize.V_str s -> Qcomp_backend.Artifact.Pv_str s

(* ---------------- normalizer ---------------- *)

let normalize_roundtrip_test =
  Alcotest.test_case "normalize extracts literals, denormalize restores them"
    `Quick (fun () ->
      List.iter
        (fun (nm, p) ->
          let shape, vals = Paramize.normalize p in
          if Array.length vals = 0 then
            Alcotest.failf "%s: no literal extracted" nm;
          if shape = p then Alcotest.failf "%s: shape identical to plan" nm;
          (* denormalize . normalize = id *)
          if Paramize.denormalize shape vals <> p then
            Alcotest.failf "%s: denormalize(normalize p) <> p" nm;
          (* a shape is a fixed point: nothing left to extract *)
          let shape', vals' = Paramize.normalize shape in
          if shape' <> shape || Array.length vals' <> 0 then
            Alcotest.failf "%s: normalizing a shape is not the identity" nm)
        sample_plans)

let normalize_arity_test =
  Alcotest.test_case "denormalize rejects a wrong-arity vector" `Quick
    (fun () ->
      let _, p = variant 0 3 in
      let shape, vals = Paramize.normalize p in
      check Alcotest.bool "short vector fails loud" true
        (raises_invalid (fun () ->
             ignore
               (Paramize.denormalize shape
                  (Array.sub vals 0 (Array.length vals - 1)))));
      check Alcotest.bool "long vector fails loud" true
        (raises_invalid (fun () ->
             ignore (Paramize.denormalize shape (Array.append vals vals)))))

(* ---------------- wire transport ---------------- *)

let wire_param_test =
  Alcotest.test_case "wire codec round-trips Param nodes, rejects corruption"
    `Quick (fun () ->
      List.iter
        (fun (nm, p) ->
          let shape, _ = Paramize.normalize p in
          let s = Wire.to_string shape in
          if Wire.of_string s <> shape then
            Alcotest.failf "%s: decoded shape <> shape" nm;
          check Alcotest.bool (nm ^ " truncation fails loud") true
            (raises_invalid (fun () ->
                 Wire.of_string (String.sub s 0 (String.length s - 1))));
          check Alcotest.bool (nm ^ " trailing bytes fail loud") true
            (raises_invalid (fun () -> Wire.of_string (s ^ "\x00"))))
        sample_plans)

(* ---------------- shape keys ---------------- *)

let shape_key_test =
  Alcotest.test_case "literal variants share a shape key, shapes never collide"
    `Quick (fun () ->
      (* same template, different literals: identical shape fingerprint *)
      List.iter
        (fun i ->
          let _, pa = variant i 1 and _, pb = variant i 9 in
          let sa, _ = Paramize.normalize pa and sb, _ = Paramize.normalize pb in
          if sa <> sb then Alcotest.failf "template %d: shapes differ" i;
          if not (Int64.equal (Fingerprint.plan sa) (Fingerprint.plan sb)) then
            Alcotest.failf "template %d: shape fingerprints differ" i)
        template_indices;
      (* distinct templates: pairwise-distinct shape fingerprints; and the
         exact (literal-bearing) plans of one template stay distinct from
         each other, so an exact-keyed fallback entry can never alias *)
      let shape_keys =
        List.map
          (fun i ->
            Fingerprint.plan (fst (Paramize.normalize (snd (variant i 0)))))
          template_indices
      in
      let exact_keys =
        (* zseg aliases literals mod 5, so use zrev which never aliases *)
        List.init 8 (fun k -> Fingerprint.plan (snd (variant 0 k)))
      in
      let distinct l =
        List.length (List.sort_uniq Int64.compare l) = List.length l
      in
      check Alcotest.bool "shape keys pairwise distinct" true
        (distinct shape_keys);
      check Alcotest.bool "exact keys pairwise distinct" true
        (distinct exact_keys);
      (* a shape never collides with any exact plan of the same template *)
      List.iter
        (fun i ->
          let _, p = variant i 2 in
          let shape, _ = Paramize.normalize p in
          if Int64.equal (Fingerprint.plan shape) (Fingerprint.plan p) then
            Alcotest.failf "template %d: shape key collides with exact key" i)
        template_indices)

let key_v_param_version_test =
  Alcotest.test_case "key_v folds the parameter-format version" `Quick
    (fun () ->
      let _, p = variant 0 0 in
      let shape, _ = Paramize.normalize p in
      let k v =
        Fingerprint.key_v ~param_version:v ~version:1 ~backend:"stencil"
          ~target:"x86-64" shape
      in
      let base = k Paramize.format_version in
      if Int64.equal base (k (Paramize.format_version + 1)) then
        Alcotest.fail "param_version flip does not change key_v";
      (* the same flip must make a saved snapshot record unfindable *)
      let implicit =
        Fingerprint.key_v ~version:1 ~backend:"stencil" ~target:"x86-64" shape
      in
      if Int64.equal implicit (k (Paramize.format_version + 1)) then
        Alcotest.fail "flipped param_version collides with the default key")

(* ---------------- back-end differential ---------------- *)

(* compile the shape with parameter holes, bind [vals], execute *)
let run_param db backend ~name shape vals =
  let timing = Timing.create ~enabled:false () in
  let cq = Engine.plan_to_ir db ~name shape in
  let cm =
    Qcomp_backend.Backend.compile_module backend ~params:(Array.map to_pv vals)
      ~timing ~emu:db.Engine.emu ~registry:db.Engine.registry
      ~unwind:db.Engine.unwind cq.Qcomp_codegen.Codegen.modul
  in
  Fun.protect
    ~finally:(fun () -> Engine.dispose_module db cm)
    (fun () ->
      let r = Engine.execute db cq cm in
      (r.Engine.output_count, Engine.checksum r.Engine.rows))

let backend_differential_test =
  Alcotest.test_case
    "parameterized execution is byte-identical to whole-plan compilation"
    `Slow (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let timing = Timing.create ~enabled:false () in
      let param_backends =
        List.filter Qcomp_backend.Backend.supports_params
          (Engine.all_backends db.Engine.target)
      in
      if List.length param_backends < 3 then
        Alcotest.fail "expected >= 3 param-capable back-ends on x86-64";
      List.iter
        (fun (nm, p) ->
          (* the oracle: the literal-bearing plan compiled whole *)
          let expect_rows, expect_sum =
            Engine.with_compiled db ~backend:Engine.interpreter ~timing
              ~name:nm p (fun cq cm _ ->
                let r = Engine.execute db cq cm in
                (r.Engine.output_count, Engine.checksum r.Engine.rows))
          in
          let shape, vals = Paramize.normalize p in
          List.iter
            (fun b ->
              let bname = Qcomp_backend.Backend.name b in
              let rows, sum = run_param db b ~name:nm shape vals in
              check Alcotest.int
                (Printf.sprintf "%s/%s rows" nm bname)
                expect_rows rows;
              check Alcotest.int64
                (Printf.sprintf "%s/%s checksum" nm bname)
                expect_sum sum)
            param_backends)
        sample_plans)

let non_param_backend_refusal_test =
  Alcotest.test_case "non-param back-ends refuse parameter vectors" `Quick
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let nm, p = variant 3 1 in
      let shape, vals = Paramize.normalize p in
      let holdouts =
        List.filter
          (fun b -> not (Qcomp_backend.Backend.supports_params b))
          (Engine.all_backends db.Engine.target)
      in
      if holdouts = [] then Alcotest.fail "expected some non-param back-end";
      List.iter
        (fun b ->
          check Alcotest.bool
            (Qcomp_backend.Backend.name b ^ " refuses params")
            true
            (raises_invalid (fun () -> ignore (run_param db b ~name:nm shape vals))))
        holdouts)

(* a literal in a never-consumed projection column is extracted by the
   normalizer but dead-code-eliminated by codegen: the artifact's
   parameter descriptor must still be sized by declaration so the full
   vector binds (found by the plan fuzzer) *)
let dead_hole_test =
  Alcotest.test_case "a hole in dead code still binds its full vector" `Quick
    (fun () ->
      let cu = Qcomp_storage.Schema.col_index Qcomp_workloads.Tpch.customer in
      let p =
        Algebra.Group_by
          {
            input =
              Algebra.Project
                {
                  input = Algebra.Scan { table = "customer"; filter = None };
                  exprs = [ Expr.col (cu "c_nationkey"); Expr.int32 42 ];
                };
            keys = [ Expr.col 0 ];
            aggs = [ Algebra.Count_star ];
          }
      in
      let shape, vals = Paramize.normalize p in
      check Alcotest.int "dead literal extracted" 1 (Array.length vals);
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let timing = Timing.create ~enabled:false () in
      let expect_rows, expect_sum =
        Engine.with_compiled db ~backend:Engine.interpreter ~timing
          ~name:"dead_hole" p (fun cq cm _ ->
            let r = Engine.execute db cq cm in
            (r.Engine.output_count, Engine.checksum r.Engine.rows))
      in
      (* stencil is artifact-backed: before the declared-signature fix this
         raised Invalid_argument at link time *)
      let rows, sum = run_param db Engine.stencil ~name:"dead_hole" shape vals in
      check Alcotest.int "rows" expect_rows rows;
      check Alcotest.int64 "checksum" expect_sum sum)

(* ---------------- serving differential ---------------- *)

let pairs qs =
  List.map
    (fun (q : Qcomp_workloads.Spec.query) ->
      (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
    qs

let multiset (r : Server.report) =
  List.sort compare
    (List.map
       (fun (q : Server.query_metrics) ->
         (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
       r.Report.r_queries)

let serving_differential_test =
  Alcotest.test_case
    "both serving drivers: paramized results = whole-plan results" `Slow
    (fun () ->
      let stream = pairs (Qcomp_workloads.Paramgen.stream ~seed:11L ~n:30) in
      let mkdb () =
        Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1
      in
      let cfg = Server.default_config in
      let on = Server.run (mkdb ()) { cfg with Server.paramize = true } stream in
      let off =
        Server.run (mkdb ()) { cfg with Server.paramize = false } stream
      in
      check
        Alcotest.(list (triple string int int64))
        "paramize on = off (event driver)" (multiset off) (multiset on);
      (* shape-keyed caching actually engaged on the paramized run *)
      if on.Report.r_shape_hits + on.Report.r_exact_hits = 0 then
        Alcotest.fail "paramized run saw no shape/exact hits";
      check Alcotest.int "whole-plan run never binds" 0 off.Report.r_binds;
      (* the domain-parallel driver serves the same stream identically *)
      let par =
        Server.run ~parallel:true (mkdb ())
          { cfg with Server.paramize = true; workers = 2 }
          stream
      in
      check
        Alcotest.(list (triple string int int64))
        "paramize on (pool driver) = whole-plan" (multiset off) (multiset par);
      if par.Report.r_shape_hits + par.Report.r_exact_hits = 0 then
        Alcotest.fail "paramized pool run saw no shape/exact hits")

(* AArch64 has no compiling rung that binds parameter holes, so a tiered
   query upgrades from the interpreter to code compiled from its exact
   plan: every quantum must still run code of one codegen result, with
   and without reopt, on both drivers. Up to sf 2 the interpreter
   finishes every query before its exact-plan compile lands, so the
   database is built at sf 3, where 7 of the 30 queries swap *)
let a64_tiered_test ~parallel =
  Alcotest.test_case
    (Printf.sprintf "a64 tiered and tiered+reopt over Zipf plans = interpreter (%s)"
       (if parallel then "pool driver" else "event driver"))
    `Slow
    (fun () ->
      let stream = pairs (Qcomp_workloads.Paramgen.stream ~seed:11L ~n:30) in
      let serve mode reopt =
        Server.run ~parallel
          (Experiments.make_db Qcomp_vm.Target.a64 Experiments.Tpch ~sf:3)
          { Server.default_config with Server.mode; reopt; workers = 2 }
          stream
      in
      let expect = multiset (serve (Server.Static Engine.interpreter) false) in
      List.iter
        (fun reopt ->
          let r = serve Server.Tiered reopt in
          let label = if reopt then "tiered+reopt" else "tiered" in
          check
            Alcotest.(list (triple string int int64))
            label expect (multiset r);
          if r.Report.r_switchovers = 0 then Alcotest.failf "%s never switched tier" label)
        [ false; true ])

let suite =
  [
    normalize_roundtrip_test;
    normalize_arity_test;
    wire_param_test;
    shape_key_test;
    key_v_param_version_test;
    backend_differential_test;
    non_param_backend_refusal_test;
    dead_hole_test;
    serving_differential_test;
    a64_tiered_test ~parallel:false;
    a64_tiered_test ~parallel:true;
  ]
