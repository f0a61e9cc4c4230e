(* Intra-query morsel-driven parallelism: morsel claims and how [Exec]
   slices steps into quanta, the morsel-partitioned differential (every
   TPC-H query at intra 1/2/4 must produce the sequential multiset, across
   back-ends and both serving drivers), the wall-vs-total cycle accounting,
   and the two-phase build's exact-size merge under genuinely concurrent
   lane-local builds. *)

open Qcomp_vm
open Qcomp_engine
open Qcomp_server
module Htable = Qcomp_runtime.Htable
module Hashes = Qcomp_support.Hashes
module Spec = Qcomp_workloads.Spec

let check = Alcotest.check
let timing = Qcomp_support.Timing.create ~enabled:false ()

let tpch_queries =
  List.map
    (fun (q : Spec.query) -> (q.Spec.q_name, q.Spec.q_plan))
    (Experiments.queries_of Experiments.Tpch)

(* Lane merges emit rows in lane order, not sequential insert order, so
   every comparison here is over the sorted multiset. *)
let multiset_checksum rows = Engine.checksum (List.sort compare rows)

(* Run [cq]/[cm] to completion, optionally over a lane pool; returns
   (multiset checksum, row count, total cycles, wall cycles). Lane
   contexts are permanent, so callers create one scheduler per db and
   reuse it across queries. *)
let run_lanes ?sched db cq cm ~morsel =
  let ex = Exec.start ?sched db cq cm in
  Fun.protect ~finally:(fun () -> Exec.dispose ex) @@ fun () ->
  Exec.run_to_end ex ~morsel;
  let r = Exec.result ex in
  ( multiset_checksum r.Engine.rows,
    r.Engine.output_count,
    Exec.cycles ex,
    Exec.wall_cycles ex )

(* ---------------- morsel slicing ---------------- *)

(* The shared claim hands out contiguous, size-bounded, disjoint morsels
   that cover the range exactly, also when two domains drain it at once. *)
let claim_case =
  Alcotest.test_case "Morsel_sched claims: contiguous, bounded, covering"
    `Quick (fun () ->
      let drain c =
        let rec go acc =
          match Morsel_sched.take c with
          | None -> List.rev acc
          | Some r -> go (r :: acc)
        in
        go []
      in
      check
        Alcotest.(list (pair int int))
        "chunks of 33 over [10, 110)"
        [ (10, 43); (43, 76); (76, 109); (109, 110) ]
        (drain (Morsel_sched.claim ~lo:10 ~hi:110 ~size:33));
      let c = Morsel_sched.claim ~lo:60 ~hi:60 ~size:8 in
      check Alcotest.bool "empty range" true (Morsel_sched.take c = None);
      check Alcotest.bool "size 0 rejected" true
        (try
           ignore (Morsel_sched.claim ~lo:0 ~hi:10 ~size:0);
           false
         with Invalid_argument _ -> true);
      let c = Morsel_sched.claim ~lo:0 ~hi:10_000 ~size:7 in
      let other = Domain.spawn (fun () -> drain c) in
      let mine = drain c in
      let all = List.sort compare (mine @ Domain.join other) in
      let upto =
        List.fold_left
          (fun lo (a, b) ->
            check Alcotest.int "contiguous" lo a;
            check Alcotest.bool "bounded" true (b > a && b - a <= 7);
            b)
          0 all
      in
      check Alcotest.int "covers" 10_000 upto)

(* [Exec.step] runs a [`Whole] step as one quantum, a serial [`Table] step
   [morsel] rows at a time, and only a par-safe table body with sinks
   [lanes * morsel] rows at a time; the row observations always add up. *)
let quanta_case =
  Alcotest.test_case
    "Exec slices serial scans by morsel, sinked bodies by lanes x morsel"
    `Quick (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let lanes = 4 and morsel = 128 in
      let sched = Morsel_sched.create ~parallel:false db ~lanes in
      let table_rows t = Qcomp_storage.Table.rows (Engine.table db t) in
      let quanta_of size rows = max 1 ((rows + size - 1) / size) in
      let seen_parallel = ref false and seen_serial = ref false in
      List.iter
        (fun (name, plan) ->
          Engine.with_compiled db ~backend:Engine.stencil ~timing ~name plan
            (fun cq cm _ ->
              let steps = cq.Qcomp_codegen.Codegen.steps in
              let parallel (s : Qcomp_codegen.Codegen.step) =
                s.par_safe && s.sinks <> []
              in
              let scan_rows =
                List.fold_left
                  (fun a (s : Qcomp_codegen.Codegen.step) ->
                    match s.range with
                    | `Table t -> a + table_rows t
                    | `Whole ->
                        check Alcotest.bool (name ^ ": whole step is serial")
                          false (s.par_safe || s.sinks <> []);
                        a)
                  0 steps
              in
              let expect ~lanes =
                List.fold_left
                  (fun a (s : Qcomp_codegen.Codegen.step) ->
                    match s.range with
                    | `Whole -> a + 1
                    | `Table t when lanes > 1 && parallel s ->
                        a + quanta_of (lanes * morsel) (table_rows t)
                    | `Table t -> a + quanta_of morsel (table_rows t))
                  0 steps
              in
              let fans_out =
                List.exists
                  (fun (s : Qcomp_codegen.Codegen.step) ->
                    match s.range with
                    | `Table t -> parallel s && table_rows t > morsel
                    | `Whole -> false)
                  steps
              in
              if fans_out then seen_parallel := true;
              if List.exists (fun s -> not (parallel s)) steps then
                seen_serial := true;
              List.iter
                (fun (lanes, sched) ->
                  let label = Printf.sprintf "%s @%d lanes" name lanes in
                  let ex = Exec.start ?sched db cq cm in
                  Fun.protect ~finally:(fun () -> Exec.dispose ex) @@ fun () ->
                  check Alcotest.int (label ^ ": rows before") scan_rows
                    (Exec.rows_remaining ex);
                  Exec.run_to_end ex ~morsel ~on_quantum:(fun _ ->
                      check Alcotest.int (label ^ ": rows conserved") scan_rows
                        (Exec.rows_done ex + Exec.rows_remaining ex));
                  check Alcotest.int (label ^ ": quanta") (expect ~lanes)
                    (Exec.quanta ex);
                  check Alcotest.int (label ^ ": rows done") scan_rows
                    (Exec.rows_done ex);
                  check Alcotest.int (label ^ ": rows after") 0
                    (Exec.rows_remaining ex);
                  if lanes = 1 || not fans_out then
                    check Alcotest.int (label ^ ": wall = total")
                      (Exec.cycles ex) (Exec.wall_cycles ex)
                  else
                    check Alcotest.bool (label ^ ": wall < total") true
                      (Exec.wall_cycles ex < Exec.cycles ex))
                [ (1, None); (lanes, Some sched) ]))
        tpch_queries;
      check Alcotest.bool "some body fans out" true !seen_parallel;
      check Alcotest.bool "some step stays serial" true !seen_serial)

(* ---------------- morsel-partitioned differential ---------------- *)

(* Every TPC-H query, sequential vs 2 and 4 simulated lanes on the stencil
   tier: identical multisets, and wall cycles never exceed total work. *)
let lanes_differential_case =
  Alcotest.test_case "all TPC-H queries: intra 1/2/4 multisets identical"
    `Quick (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let scheds =
        List.map
          (fun lanes -> (lanes, Morsel_sched.create ~parallel:false db ~lanes))
          [ 2; 4 ]
      in
      List.iter
        (fun (name, plan) ->
          Engine.with_compiled db ~backend:Engine.stencil ~timing ~name plan
            (fun cq cm _ ->
              let sum1, n1, c1, w1 = run_lanes db cq cm ~morsel:128 in
              check Alcotest.int (name ^ ": serial wall = total") c1 w1;
              List.iter
                (fun (lanes, sched) ->
                  let sum, n, c, w = run_lanes ~sched db cq cm ~morsel:128 in
                  check Alcotest.int
                    (Printf.sprintf "%s: rows @%d lanes" name lanes)
                    n1 n;
                  check Alcotest.int64
                    (Printf.sprintf "%s: multiset @%d lanes" name lanes)
                    sum1 sum;
                  check Alcotest.bool
                    (Printf.sprintf "%s: wall <= total @%d lanes" name lanes)
                    true (w <= c))
                scheds))
        tpch_queries)

(* A heavy scan-dominated aggregate must actually get faster in modeled
   wall-clock when its body fans out. *)
let speedup_case =
  Alcotest.test_case "scan-heavy aggregate: intra 4 wall < serial wall"
    `Quick (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:4 in
      let name, plan =
        List.find (fun (n, _) -> n = "q01") tpch_queries
      in
      let sched = Morsel_sched.create ~parallel:false db ~lanes:4 in
      Engine.with_compiled db ~backend:Engine.stencil ~timing ~name plan
        (fun cq cm _ ->
          let _, _, _, w1 = run_lanes db cq cm ~morsel:256 in
          let _, _, c4, w4 = run_lanes ~sched db cq cm ~morsel:256 in
          check Alcotest.bool "wall shrinks" true (w4 < w1);
          check Alcotest.bool "total work >= wall" true (c4 > w4)))

(* A smaller query subset across every applicable back-end at 4 lanes:
   each must reproduce its own sequential multiset, and all back-ends must
   agree with each other. *)
let backend_matrix_case =
  Alcotest.test_case "query subset: every back-end at intra 4 agrees" `Quick
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let sched = Morsel_sched.create ~parallel:false db ~lanes:4 in
      let subset =
        List.filter
          (fun (n, _) -> List.mem n [ "q01"; "q03"; "q06"; "q18" ])
          tpch_queries
      in
      List.iter
        (fun (name, plan) ->
          let reference = ref None in
          List.iter
            (fun backend ->
              let bname = Qcomp_backend.Backend.name backend in
              Engine.with_compiled db ~backend ~timing ~name plan
                (fun cq cm _ ->
                  let sum1, n1, _, _ = run_lanes db cq cm ~morsel:97 in
                  let sum4, n4, _, _ = run_lanes ~sched db cq cm ~morsel:97 in
                  check Alcotest.int64
                    (Printf.sprintf "%s/%s: 4 lanes = serial" name bname)
                    sum1 sum4;
                  check Alcotest.int
                    (Printf.sprintf "%s/%s: rows" name bname)
                    n1 n4;
                  match !reference with
                  | None -> reference := Some (sum1, n1)
                  | Some (rs, rn) ->
                      check Alcotest.int64
                        (Printf.sprintf "%s/%s: cross-backend" name bname)
                        rs sum4;
                      check Alcotest.int
                        (Printf.sprintf "%s/%s: cross-backend rows" name bname)
                        rn n4))
            (Engine.all_backends db.Engine.target))
        subset)

(* ---------------- both serving drivers ---------------- *)

let server_intra_case =
  Alcotest.test_case "event driver at intra 2 reproduces run_plan" `Quick
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let cfg = { Server.default_config with Server.intra = 2; workers = 2 } in
      let report = Server.run db cfg tpch_queries in
      check Alcotest.int "all served"
        (List.length tpch_queries)
        (List.length report.Report.r_queries);
      let vdb = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      List.iter
        (fun (q : Report.query_metrics) ->
          let plan = List.assoc q.Report.qm_name tpch_queries in
          let expect =
            Engine.with_compiled vdb ~backend:Engine.interpreter ~timing
              ~name:q.Report.qm_name plan (fun cq cm _ ->
                multiset_checksum (Engine.execute vdb cq cm).Engine.rows)
          in
          check Alcotest.int64 (q.Report.qm_name ^ ": served checksum") expect
            q.Report.qm_checksum)
        report.Report.r_queries)

let pool_intra_case =
  Alcotest.test_case "domain pool at domains 2 x intra 2 reproduces results"
    `Quick (fun () ->
      let stream =
        List.filter
          (fun (n, _) -> List.mem n [ "q01"; "q03"; "q06"; "q12"; "q18" ])
          tpch_queries
      in
      let cfg =
        {
          Server.default_config with
          Server.workers = 2;
          intra = 2;
          mean_gap_s = 0.0;
        }
      in
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let preport = Server.run ~parallel:true db cfg stream in
      let sdb = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let sreport = Server.run sdb cfg stream in
      let key (q : Report.query_metrics) =
        (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum)
      in
      let multiset (r : Report.t) =
        List.sort compare (List.map key r.Report.r_queries)
      in
      check
        Alcotest.(list (triple string int int64))
        "pool = event driver" (multiset sreport) (multiset preport))

(* Each run's lane contexts (and, on the pool, each worker's domain view)
   give their VM stacks back when the run ends: with a warm shared cache,
   a repeated run leaves live data exactly where the previous one did. *)
let lane_release_case =
  Alcotest.test_case "repeated runs at intra > 1 keep live data flat" `Quick
    (fun () ->
      let stream =
        List.filter (fun (n, _) -> List.mem n [ "q01"; "q03"; "q18" ]) tpch_queries
      in
      let cfg =
        {
          Server.default_config with
          Server.mode = Server.Static Engine.stencil;
          workers = 2;
          intra = 4;
          mean_gap_s = 0.0;
        }
      in
      List.iter
        (fun (driver, run) ->
          let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
          let cache = Code_cache.create ~capacity:cfg.Server.cache_capacity in
          let live () = Memory.live_data_bytes (Engine.memory db) in
          ignore (run ~cache db cfg stream);
          let after_first = live () in
          ignore (run ~cache db cfg stream);
          check Alcotest.int (driver ^ ": live data after a repeat") after_first (live ()))
        [
          ("event driver", fun ~cache db cfg s -> Server.run ~cache db cfg s);
          ("domain pool", fun ~cache db cfg s -> Server.run ~cache ~parallel:true db cfg s);
        ])

(* ---------------- two-phase build machinery ---------------- *)

let exact_capacity_case =
  Alcotest.test_case "exact_capacity never admits a grow" `Quick (fun () ->
      let vm = Emu.create ~mem_size:(1 lsl 24) Target.x64 in
      let m = Emu.memory vm in
      List.iter
        (fun n ->
          let ht =
            Htable.create vm ~payload_size:8
              ~capacity_hint:(Htable.exact_capacity n)
          in
          let cap0 = Htable.capacity m ht in
          for i = 1 to n do
            ignore (Htable.insert vm ht (Hashes.hash64 (Int64.of_int i)))
          done;
          check Alcotest.int
            (Printf.sprintf "capacity stable at %d" n)
            cap0 (Htable.capacity m ht);
          check Alcotest.int (Printf.sprintf "count %d" n) n (Htable.count m ht))
        [ 0; 1; 7; 100; 1000; 5000 ])

let concurrent_build_merge_case =
  Alcotest.test_case
    "grow-under-concurrent-build: lane tables merge exactly" `Quick
    (fun () ->
      let vm = Emu.create ~mem_size:(1 lsl 26) Target.x64 in
      let m = Emu.memory vm in
      let lanes = 4 and per_lane = 5000 in
      (* each domain hammers its own lane-local table in the shared memory
         — tiny capacity hint forces several grows mid-build on every lane
         while the others are also allocating *)
      let build lane () =
        let vm = Emu.context vm in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        for i = 0 to per_lane - 1 do
          let key = Int64.of_int ((lane * per_lane) + i) in
          let p = Htable.insert vm ht (Hashes.hash64 key) in
          Memory.store64 m p key
        done;
        ht
      in
      let doms = Array.init lanes (fun l -> Domain.spawn (build l)) in
      let lane_tables = Array.map Domain.join doms in
      let total = lanes * per_lane in
      let dst =
        Htable.create vm ~payload_size:8
          ~capacity_hint:(Htable.exact_capacity total)
      in
      let cap0 = Htable.capacity m dst in
      Array.iter (fun src -> Htable.merge_into vm ~dst ~src) lane_tables;
      check Alcotest.int "no grow during merge" cap0 (Htable.capacity m dst);
      check Alcotest.int "all entries merged" total (Htable.count m dst);
      (* every key is present exactly once with its payload *)
      for k = 0 to total - 1 do
        let key = Int64.of_int k in
        let e = Htable.lookup vm dst (Hashes.hash64 key) in
        if e = 0 then Alcotest.failf "key %d missing after merge" k;
        if not (Int64.equal (Memory.load64 m (e + 8)) key) then
          Alcotest.failf "key %d: wrong payload" k;
        let e' = Htable.next vm dst e (Hashes.hash64 key) in
        if e' <> 0 && Int64.equal (Memory.load64 m (e' + 8)) key then
          Alcotest.failf "key %d merged twice" k
      done)

let suite =
  [
    claim_case; quanta_case; lanes_differential_case; speedup_case; backend_matrix_case;
    server_intra_case; pool_intra_case; lane_release_case; exact_capacity_case;
    concurrent_build_merge_case;
  ]
