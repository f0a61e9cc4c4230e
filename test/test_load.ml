(* Serving under load: the admission queue (cap, sheds, tenant-fair
   dequeue), the report's latency percentiles, the open-loop traffic
   generator, and
   the load-path properties that matter — an idle Domain pool burning no
   host CPU, concurrent cache misses deduplicating to one back-end
   compile, the bound-instance MRU cap disposing overflow (claims
   excepted), and the capped/uncapped overload differential on both
   serving drivers. *)

open Qcomp_engine
open Qcomp_server
open Qcomp_plan
open Qcomp_storage

let check = Alcotest.check

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ---------------- admission queue ---------------- *)

let admission_tests =
  [
    Alcotest.test_case "cap bounds occupancy and counts sheds" `Quick (fun () ->
        let q = Admission.create ~cap:2 ~tenants:1 () in
        check Alcotest.bool "first admitted" true (Admission.offer q ~tenant:0 "a");
        check Alcotest.bool "second admitted" true (Admission.offer q ~tenant:0 "b");
        check Alcotest.bool "third shed" false (Admission.offer q ~tenant:0 "c");
        check Alcotest.int "length" 2 (Admission.length q);
        check Alcotest.int "sheds" 1 (Admission.sheds q);
        check Alcotest.int "admitted" 2 (Admission.admitted q);
        (* a take opens a slot again *)
        check Alcotest.(option string) "fifo head" (Some "a") (Admission.take q);
        check Alcotest.bool "readmits after take" true
          (Admission.offer q ~tenant:0 "d");
        check Alcotest.(option string) "order kept" (Some "b") (Admission.take q);
        check Alcotest.(option string) "order kept" (Some "d") (Admission.take q);
        check Alcotest.(option string) "empty" None (Admission.take q));
    Alcotest.test_case "dequeue is round-robin over tenants" `Quick (fun () ->
        let q = Admission.create ~tenants:3 () in
        List.iter
          (fun (t, x) -> assert (Admission.offer q ~tenant:t x))
          [ (0, "a"); (0, "b"); (1, "c"); (2, "d"); (2, "e") ];
        let drained = List.init 5 (fun _ -> Option.get (Admission.take q)) in
        (* tenant 0 holds 2 of 5 entries but gets only its fair turn *)
        check
          Alcotest.(list string)
          "fair interleave" [ "a"; "c"; "d"; "b"; "e" ] drained);
    Alcotest.test_case "peak tracks the high-water mark" `Quick (fun () ->
        let q = Admission.create ~tenants:2 () in
        assert (Admission.offer q ~tenant:0 1);
        assert (Admission.offer q ~tenant:1 2);
        assert (Admission.offer q ~tenant:1 3);
        ignore (Admission.take q);
        ignore (Admission.take q);
        assert (Admission.offer q ~tenant:0 4);
        check Alcotest.int "peak" 3 (Admission.peak q);
        check Alcotest.int "length" 2 (Admission.length q);
        check Alcotest.int "tenants" 2 (Admission.tenants q));
    Alcotest.test_case "invalid configs fail loud" `Quick (fun () ->
        check Alcotest.bool "zero tenants" true
          (raises_invalid (fun () ->
               ignore (Admission.create ~tenants:0 () : int Admission.t)));
        check Alcotest.bool "zero cap" true
          (raises_invalid (fun () ->
               ignore (Admission.create ~cap:0 ~tenants:1 () : int Admission.t)));
        (* out-of-range tenants wrap into a real slot (drivers normalize
           with mod, so a hostile tag can never crash the queue) *)
        let q = Admission.create ~tenants:2 () in
        assert (Admission.offer q ~tenant:5 7);
        check Alcotest.(option int) "tenant wraps to slot 1" (Some 7)
          (Admission.take q));
  ]

(* ---------------- traffic generator ---------------- *)

let tiny_pool = [ ("p", Algebra.Scan { table = "t"; filter = None }) ]

let pool5 =
  List.init 5 (fun i ->
      (Printf.sprintf "p%d" i, Algebra.Scan { table = "t"; filter = None }))

let trafficgen_tests =
  [
    Alcotest.test_case "stream is deterministic, ordered and in range" `Quick
      (fun () ->
        let mk () =
          Qcomp_workloads.Trafficgen.stream
            ~arrival:(Qcomp_workloads.Trafficgen.Poisson { qps = 1000.0 })
            ~seed:9L ~n:50 ~tenants:3 pool5
        in
        let s = mk () in
        check Alcotest.int "n requests" 50 (List.length s);
        check Alcotest.bool "same seed, same trace" true (mk () = s);
        let last = ref 0.0 in
        List.iter
          (fun (name, _, at, tenant) ->
            check Alcotest.bool "time non-decreasing" true (at >= !last);
            last := at;
            check Alcotest.bool "tenant in range" true (tenant >= 0 && tenant < 3);
            check Alcotest.bool "name from pool" true
              (List.mem_assoc name pool5))
          s);
    Alcotest.test_case "burst arrivals insert the idle gap" `Quick (fun () ->
        let idle = 0.5 in
        let s =
          Qcomp_workloads.Trafficgen.stream
            ~arrival:
              (Qcomp_workloads.Trafficgen.Burst
                 { qps = 1.0e6; burst = 4; idle_s = idle })
            ~seed:1L ~n:12 tiny_pool
        in
        let at = Array.of_list (List.map (fun (_, _, t, _) -> t) s) in
        (* within a burst gaps are ~1us; across the boundary >= idle *)
        check Alcotest.bool "gap at burst boundary" true
          (at.(4) -. at.(3) >= idle && at.(8) -. at.(7) >= idle);
        check Alcotest.bool "no stray idle inside a burst" true
          (at.(3) -. at.(0) < idle && at.(7) -. at.(4) < idle));
    Alcotest.test_case "invalid arguments fail loud" `Quick (fun () ->
        let poisson = Qcomp_workloads.Trafficgen.Poisson { qps = 100.0 } in
        let bad f = check Alcotest.bool "rejected" true (raises_invalid f) in
        bad (fun () ->
            ignore
              (Qcomp_workloads.Trafficgen.stream ~arrival:poisson ~seed:1L ~n:1
                 []));
        bad (fun () ->
            ignore
              (Qcomp_workloads.Trafficgen.stream
                 ~arrival:(Qcomp_workloads.Trafficgen.Poisson { qps = 0.0 })
                 ~seed:1L ~n:1 tiny_pool));
        bad (fun () ->
            ignore
              (Qcomp_workloads.Trafficgen.stream
                 ~arrival:
                   (Qcomp_workloads.Trafficgen.Burst
                      { qps = 1.0; burst = 0; idle_s = 0.0 })
                 ~seed:1L ~n:1 tiny_pool));
        bad (fun () ->
            ignore
              (Qcomp_workloads.Trafficgen.stream ~arrival:poisson ~seed:1L ~n:1
                 ~tenants:0 tiny_pool)))
  ]

(* ---------------- shared fixtures ---------------- *)

let schema =
  Schema.make "t"
    [ ("a", Schema.Int64); ("g", Schema.Int32); ("d", Schema.Decimal 2);
      ("s", Schema.Str) ]

let make_db ?(rows = 64) () =
  let db = Engine.create_db ~mem_size:(1 lsl 26) Qcomp_vm.Target.x64 in
  let _ =
    Engine.add_table db schema ~rows ~seed:123L
      [| Datagen.Uniform (-50, 50); Datagen.Uniform (0, 5);
         Datagen.DecimalRange (-300, 300); Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

let scan = Algebra.Scan { table = "t"; filter = None }

(* ---------------- report percentiles ---------------- *)

(* Report.assemble's percentiles are nearest-rank values of the sorted
   latencies: with latencies of 1..100 ms the p-th percentile is exactly
   p ms, whatever the completion order. *)
let percentile_test =
  Alcotest.test_case "assemble reports nearest-rank percentiles" `Quick
    (fun () ->
      let metric i =
        let ms = float_of_int (((i * 37) mod 100) + 1) *. 0.001 in
        { Report.qm_name = "q"; qm_fp = 0L; qm_backend = "interpreter";
          qm_arrival = 1.0; qm_start = 1.0; qm_finish = 1.0 +. ms;
          qm_compile_s = 0.0; qm_cache_hit = false; qm_switch_s = None;
          qm_quanta_tier0 = 0; qm_quanta_tier1 = 0; qm_tiers = [];
          qm_exec_cycles = 0; qm_rows = 0; qm_checksum = 0L; qm_tenant = 0;
          qm_first_s = ms /. 2.0 }
      in
      let r =
        Report.assemble (make_db ()) (Code_cache.create ~capacity:4)
          ~mode:"fixed" ~makespan:2.0 (List.init 100 metric)
      in
      let near what expect got = check (Alcotest.float 1e-9) what expect got in
      near "p50" 0.050 r.Report.r_p50_latency;
      near "p95" 0.095 r.Report.r_p95_latency;
      near "p99" 0.099 r.Report.r_p99_latency;
      near "max" 0.100 r.Report.r_max_latency;
      near "mean" 0.0505 r.Report.r_mean_latency;
      near "first-row p50" 0.025 r.Report.r_p50_first_row;
      near "first-row p95" 0.0475 r.Report.r_p95_first_row;
      near "first-row p99" 0.0495 r.Report.r_p99_first_row)

let empty_report_test =
  Alcotest.test_case "assemble on no queries reports zero latencies" `Quick
    (fun () ->
      let r =
        Report.assemble (make_db ()) (Code_cache.create ~capacity:4)
          ~mode:"empty" ~makespan:0.0 []
      in
      let zero what got = check (Alcotest.float 0.0) what 0.0 got in
      zero "p50" r.Report.r_p50_latency;
      zero "p99" r.Report.r_p99_latency;
      zero "max" r.Report.r_max_latency;
      zero "mean" r.Report.r_mean_latency;
      zero "first-row p99" r.Report.r_p99_first_row)

let fixed_plans =
  [
    ("scan", scan);
    ("filter", Algebra.Filter { input = scan; pred = Expr.(col 1 <% int32 3) });
    ( "agg",
      Algebra.Group_by
        {
          input = scan;
          keys = [ Expr.col 1 ];
          aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 0) ];
        } );
    ( "sort",
      Algebra.Order_by
        { input = scan; keys = [ (Expr.col 0, Algebra.Desc) ]; limit = Some 10 } );
  ]

let multiset (r : Server.report) =
  List.sort compare
    (List.map
       (fun (q : Server.query_metrics) ->
         (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
       r.Report.r_queries)

let percentiles_ordered (r : Server.report) =
  r.Report.r_p99_latency >= r.Report.r_p95_latency
  && r.Report.r_p95_latency >= r.Report.r_p50_latency
  && r.Report.r_p99_first_row >= r.Report.r_p95_first_row
  && r.Report.r_p95_first_row >= r.Report.r_p50_first_row

(* the overload trace both drivers replay: bursts far above the drain
   rate, so a small cap must shed *)
let overload_requests =
  List.map
    (fun (name, plan, at, tenant) ->
      { Server.rq_name = name; rq_plan = plan; rq_arrival = at;
        rq_tenant = tenant })
    (Qcomp_workloads.Trafficgen.stream
       ~arrival:
         (Qcomp_workloads.Trafficgen.Burst
            { qps = 100_000.0; burst = 16; idle_s = 1e-5 })
       ~seed:42L ~n:60 ~tenants:2 fixed_plans)

let load_cfg cap =
  {
    Server.default_config with
    Server.mode = Server.Tiered;
    Server.admission_cap = cap;
    Server.tenants = 2;
  }

(* ---------------- load-path properties ---------------- *)

let idle_pool_cpu_test =
  Alcotest.test_case "idle pool burns no host CPU while waiting" `Quick
    (fun () ->
      (* one request 0.3s away: 2 worker domains (plus compile slots) sit
         on the condition variable the whole time. The pre-fix busy-poll
         spun every worker through the queue lock, burning ~1 CPU-second
         here; blocked domains burn none. *)
      let db = make_db () in
      let reqs =
        [ { Server.rq_name = "late"; rq_plan = scan; rq_arrival = 0.3;
            rq_tenant = 0 } ]
      in
      let cpu0 = Sys.time () and wall0 = Unix.gettimeofday () in
      let r =
        Server.run_requests ~parallel:true db
          { (load_cfg None) with Server.workers = 2 } reqs
      in
      let cpu = Sys.time () -. cpu0 and wall = Unix.gettimeofday () -. wall0 in
      check Alcotest.int "query served" 1 (List.length r.Report.r_queries);
      check Alcotest.bool "waited for the arrival" true (wall >= 0.28);
      check Alcotest.bool
        (Printf.sprintf "cpu %.3fs for %.3fs wall" cpu wall)
        true
        (cpu < 0.15))

let dedup_compile_test =
  Alcotest.test_case "concurrent misses dedup to one back-end compile" `Quick
    (fun () ->
      let db = make_db ~rows:256 () in
      let cache = Code_cache.create ~capacity:8 in
      let plan = List.assoc "agg" fixed_plans in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                Code_cache.get_or_compile cache db ~backend:Engine.cranelift
                  ~stats:false ~name:"agg" plan))
      in
      let entries = List.map (fun d -> fst (Domain.join d)) domains in
      let ms = Code_cache.mem_stats cache in
      check Alcotest.int "one back-end compile" 1 ms.Code_cache.ms_backend_compiles;
      check Alcotest.int "one cache entry" 1 (Code_cache.stats cache).Lru.entries;
      (match entries with
      | e :: rest ->
          List.iter
            (fun e' ->
              check Alcotest.bool "all domains share the entry" true (e == e'))
            rest
      | [] -> Alcotest.fail "no entries"))

let to_pv = function
  | Paramize.V_int (_, v) -> Qcomp_backend.Artifact.Pv_int v
  | Paramize.V_str s -> Qcomp_backend.Artifact.Pv_str s

let mru_overflow_test =
  Alcotest.test_case
    "bound-instance MRU cap disposes overflow, claims survive" `Slow
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let cache = Code_cache.create ~capacity:8 in
      let tname, mk = Qcomp_workloads.Paramgen.templates.(0) in
      let shape, vals0 = Paramize.normalize (mk 0) in
      let vec k = Array.map to_pv (snd (Paramize.normalize (mk k))) in
      let entry, _ =
        Code_cache.get_or_compile cache db ~backend:Engine.stencil
          ~params:(Array.map to_pv vals0) ~name:tname shape
      in
      (* pin v0 alive through the churn *)
      let _, cm0, fresh0 =
        Code_cache.force cache db ~params:(vec 0) ~claim:true entry
      in
      check Alcotest.bool "v0 reused the submitter's instance" false fresh0;
      (* churn 16 fresh vectors through the cap-8 instance list: live code
         must reach a steady state, not grow per vector *)
      let live () = Qcomp_vm.Emu.live_code_bytes db.Engine.emu in
      let freed () = (Code_cache.mem_stats cache).Code_cache.ms_bytes_freed in
      let steady = ref 0 and freed_last = ref (freed ()) in
      for k = 1 to 16 do
        let _, _, fresh = Code_cache.force cache db ~params:(vec k) entry in
        check Alcotest.bool "distinct vector binds fresh" true fresh;
        if k = 9 then steady := live ();
        if k > 9 then begin
          check Alcotest.bool
            (Printf.sprintf "live code stable at vector %d" k)
            true
            (live () <= !steady);
          check Alcotest.bool "disposal accounted in bytes_freed" true
            (freed () > !freed_last)
        end;
        freed_last := freed ()
      done;
      (* the claimed instance outlived 16 evictions' worth of churn *)
      let _, cm0', fresh0' = Code_cache.force cache db ~params:(vec 0) entry in
      check Alcotest.bool "claimed instance not disposed" false fresh0';
      check Alcotest.bool "same module returned" true (cm0 == cm0');
      Code_cache.release cache entry cm0;
      check Alcotest.int "no pins left" 0 (Code_cache.live_pins cache))

let overload_event_test =
  Alcotest.test_case "overload differential on the event driver" `Quick
    (fun () ->
      let run cap = Server.run_requests (make_db ~rows:1024 ()) (load_cfg cap)
          overload_requests
      in
      let capped = run (Some 2) and capped2 = run (Some 2) in
      let uncapped = run None in
      check Alcotest.int "uncapped admits everything" 60
        (List.length uncapped.Report.r_queries);
      check Alcotest.(list string) "uncapped sheds none" []
        (List.map (fun s -> s.Report.sh_name) uncapped.Report.r_sheds);
      check Alcotest.bool "capped sheds under burst" true
        (capped.Report.r_sheds <> []);
      check Alcotest.int "completed + shed = offered" 60
        (List.length capped.Report.r_queries
        + List.length capped.Report.r_sheds);
      check Alcotest.bool "queue peak bounded by cap" true
        (capped.Report.r_queue_peak <= 2);
      (* every admitted query is bit-identical to its uncapped twin *)
      let unc = multiset uncapped in
      check Alcotest.bool "admitted results identical uncapped" true
        (List.for_all (fun k -> List.mem k unc) (multiset capped));
      (* sheds are part of the deterministic report *)
      check Alcotest.bool "same seed, same sheds" true
        (capped.Report.r_sheds = capped2.Report.r_sheds
        && multiset capped = multiset capped2
        && capped.Report.r_makespan = capped2.Report.r_makespan);
      check Alcotest.bool "percentiles ordered (capped)" true
        (percentiles_ordered capped);
      check Alcotest.bool "percentiles ordered (uncapped)" true
        (percentiles_ordered uncapped))

let overload_pool_test =
  Alcotest.test_case "overload differential on the domain pool" `Quick
    (fun () ->
      let uncapped_ref =
        multiset
          (Server.run_requests (make_db ~rows:1024 ()) (load_cfg None)
             overload_requests)
      in
      (* over-provisioned: everything must be admitted, results must match
         the deterministic driver bit-for-bit *)
      let roomy =
        Server.run_requests ~parallel:true (make_db ~rows:1024 ())
          { (load_cfg (Some 1000)) with Server.workers = 2 } overload_requests
      in
      check Alcotest.(list string) "roomy cap sheds none" []
        (List.map (fun s -> s.Report.sh_name) roomy.Report.r_sheds);
      check
        Alcotest.(list (triple string int int64))
        "pool results = event-driver results" uncapped_ref (multiset roomy);
      check Alcotest.bool "percentiles ordered (pool)" true
        (percentiles_ordered roomy);
      (* tight cap: sheds are wall-clock here, but accounting must close
         and every admitted result must still be bit-exact *)
      let tight =
        Server.run_requests ~parallel:true (make_db ~rows:1024 ())
          { (load_cfg (Some 2)) with Server.workers = 2 } overload_requests
      in
      check Alcotest.int "completed + shed = offered" 60
        (List.length tight.Report.r_queries + List.length tight.Report.r_sheds);
      check Alcotest.bool "queue peak bounded by cap" true
        (tight.Report.r_queue_peak <= 2);
      check Alcotest.bool "admitted results identical uncapped" true
        (List.for_all (fun k -> List.mem k uncapped_ref) (multiset tight)))

let pool_snapshot_test =
  Alcotest.test_case "pool-served cache snapshots and reloads warm" `Quick
    (fun () ->
      let stream = Server.make_stream ~seed:7L ~n:40 fixed_plans in
      let cfg =
        {
          Server.default_config with
          Server.mode = Server.Cached;
          Server.cache_capacity = 32;
          Server.workers = 2;
        }
      in
      let reference = Server.run (make_db ~rows:1024 ()) cfg stream in
      let db = make_db ~rows:1024 () in
      let cache = Code_cache.create ~capacity:32 in
      let cold = Server.run ~cache ~parallel:true db cfg stream in
      check
        Alcotest.(list (triple string int int64))
        "pool results = event-driver results" (multiset reference)
        (multiset cold);
      let snap = Filename.temp_file "qcss" ".snap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove snap)
        (fun () ->
          Code_cache.save cache ~db snap;
          let db2 = make_db ~rows:1024 () in
          let warm = Code_cache.load ~capacity:32 ~db:db2 snap in
          check Alcotest.int "entries survive the snapshot"
            (Code_cache.stats cache).Lru.entries
            (Code_cache.stats warm).Lru.entries;
          let rewarm = Server.run ~cache:warm ~parallel:true db2 cfg stream in
          check Alcotest.int "warm run never misses" 0
            (Code_cache.stats warm).Lru.misses;
          check
            Alcotest.(list (triple string int int64))
            "warm results identical" (multiset reference) (multiset rewarm)))

let suite =
  admission_tests @ trafficgen_tests
  @ [
      percentile_test;
      empty_report_test;
      idle_pool_cpu_test;
      dedup_compile_test;
      mru_overflow_test;
      overload_event_test;
      overload_pool_test;
      pool_snapshot_test;
    ]
