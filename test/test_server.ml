(* The serving subsystem: LRU cache mechanics, canonical plan
   fingerprints, the discrete-event scheduler, and — the property that
   matters — tiered/cached serving reproducing the classic run_plan
   results exactly, on fixed plans, whole workloads and fuzzed plans. *)

open Qcomp_engine
open Qcomp_server
open Qcomp_plan
open Qcomp_storage

let check = Alcotest.check

(* ---------------- LRU ---------------- *)

let lru_tests =
  [
    Alcotest.test_case "lru evicts in least-recently-used order" `Quick (fun () ->
        let l = Lru.create ~capacity:2 in
        Lru.add l "a" ~weight:10 1;
        Lru.add l "b" ~weight:20 2;
        Lru.add l "c" ~weight:30 3;
        (* capacity 2: "a" (oldest) is gone *)
        check Alcotest.(option int) "a evicted" None (Lru.find l "a");
        (* touch "b", then insert "d": "c" must be the victim *)
        check Alcotest.(option int) "b live" (Some 2) (Lru.find l "b");
        Lru.add l "d" ~weight:40 4;
        check Alcotest.(option int) "c evicted" None (Lru.find l "c");
        check Alcotest.(option int) "b survives" (Some 2) (Lru.find l "b");
        check Alcotest.(list string) "mru order" [ "b"; "d" ] (Lru.keys_mru l));
    Alcotest.test_case "lru byte accounting" `Quick (fun () ->
        let l = Lru.create ~capacity:2 in
        Lru.add l "a" ~weight:10 1;
        Lru.add l "b" ~weight:20 2;
        check Alcotest.int "bytes" 30 (Lru.stats l).Lru.bytes;
        Lru.add l "c" ~weight:30 3;
        let s = Lru.stats l in
        check Alcotest.int "bytes after eviction" 50 s.Lru.bytes;
        check Alcotest.int "bytes evicted" 10 s.Lru.bytes_evicted;
        check Alcotest.int "evictions" 1 s.Lru.evictions;
        (* replacing re-weights without eviction *)
        Lru.add l "b" ~weight:5 20;
        check Alcotest.int "bytes after replace" 35 (Lru.stats l).Lru.bytes;
        check Alcotest.int "entries" 2 (Lru.stats l).Lru.entries);
    Alcotest.test_case "lru hit/miss counters" `Quick (fun () ->
        let l = Lru.create ~capacity:4 in
        Lru.add l 1 "x";
        ignore (Lru.find l 1);
        ignore (Lru.find l 2);
        ignore (Lru.find l 1);
        let s = Lru.stats l in
        check Alcotest.int "hits" 2 s.Lru.hits;
        check Alcotest.int "misses" 1 s.Lru.misses);
    Alcotest.test_case "lru on_drop fires on eviction and replacement" `Quick
      (fun () ->
        let l = Lru.create ~capacity:2 in
        let dropped = ref [] in
        Lru.set_on_drop l (fun v -> dropped := v :: !dropped);
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        Lru.add l "c" 3;
        check Alcotest.(list int) "eviction drops the victim" [ 1 ]
          (List.rev !dropped);
        Lru.add l "b" 20;
        check Alcotest.(list int) "replacement drops the old value" [ 1; 2 ]
          (List.rev !dropped);
        (* re-adding the physically identical value must not drop it *)
        Lru.add l "b" 20;
        check Alcotest.(list int) "identical re-add is not a drop" [ 1; 2 ]
          (List.rev !dropped));
  ]

(* ---------------- fingerprints ---------------- *)

let plan_a () =
  Algebra.Group_by
    {
      input =
        Algebra.Filter
          {
            input = Algebra.Scan { table = "t"; filter = None };
            pred = Expr.(col 1 =% int32 2);
          };
      keys = [ Expr.col 1 ];
      aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 0) ];
    }

let fingerprint_tests =
  [
    Alcotest.test_case "structurally equal plans hash identically" `Quick
      (fun () ->
        (* two independently constructed (physically distinct) plan values *)
        check Alcotest.int64 "equal plans" (Fingerprint.plan (plan_a ()))
          (Fingerprint.plan (plan_a ())));
    Alcotest.test_case "any structural difference changes the hash" `Quick
      (fun () ->
        let base = Fingerprint.plan (plan_a ()) in
        let variants =
          [
            Algebra.Scan { table = "t"; filter = None };
            Algebra.Scan { table = "u"; filter = None };
            Algebra.Filter
              {
                input = Algebra.Scan { table = "t"; filter = None };
                pred = Expr.(col 1 =% int32 3);
              };
            Algebra.Group_by
              {
                input =
                  Algebra.Filter
                    {
                      input = Algebra.Scan { table = "t"; filter = None };
                      pred = Expr.(col 1 =% int32 2);
                    };
                keys = [ Expr.col 1 ];
                aggs = [ Algebra.Count_star; Algebra.Min (Expr.col 0) ];
              };
          ]
        in
        List.iter
          (fun v ->
            if Int64.equal base (Fingerprint.plan v) then
              Alcotest.fail "distinct plan collided with base fingerprint")
          variants;
        (* and all variants are mutually distinct *)
        let fps = List.map Fingerprint.plan variants in
        check Alcotest.int "all distinct" (List.length fps)
          (List.length (List.sort_uniq compare fps)));
    Alcotest.test_case "constant type participates in the hash" `Quick (fun () ->
        let p ty =
          Algebra.Filter
            {
              input = Algebra.Scan { table = "t"; filter = None };
              pred = Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const_int (ty, 7L));
            }
        in
        if Int64.equal (Fingerprint.plan (p Sqlty.Int32)) (Fingerprint.plan (p Sqlty.Int64))
        then Alcotest.fail "int32/int64 constants collided");
  ]

(* ---------------- discrete-event scheduler ---------------- *)

let sim_tests =
  [
    Alcotest.test_case "events fire in time order, ties in schedule order" `Quick
      (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        Sim.at sim 2.0 (fun () -> log := "c" :: !log);
        Sim.at sim 1.0 (fun () -> log := "a" :: !log);
        Sim.at sim 1.0 (fun () -> log := "b" :: !log);
        (* handlers can schedule more events *)
        Sim.at sim 0.5 (fun () ->
            Sim.after sim 0.25 (fun () -> log := "z" :: !log));
        Sim.run sim;
        check Alcotest.(list string) "order" [ "z"; "a"; "b"; "c" ]
          (List.rev !log);
        check (Alcotest.float 1e-9) "clock at last event" 2.0 (Sim.now sim));
  ]

(* ---------------- serving vs run_plan (differential) ---------------- *)

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

let fixed_plans =
  [
    ("scan", scan);
    ("filter", Algebra.Filter { input = scan; pred = Expr.(col 1 <% int32 3) });
    ( "agg",
      Algebra.Group_by
        {
          input = scan;
          keys = [ Expr.col 1 ];
          aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 0); Algebra.Avg (Expr.col 2) ];
        } );
    ( "sort",
      Algebra.Order_by
        { input = scan; keys = [ (Expr.col 0, Algebra.Desc) ]; limit = Some 10 } );
    ( "join",
      Algebra.Hash_join
        {
          build = Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 2) };
          probe = scan;
          build_keys = [ Expr.col 1 ];
          probe_keys = [ Expr.col 1 ];
        } );
  ]

(* run one plan through a 1-query tiered stream and return its checksum *)
let serve_checksum db mode plan =
  let r =
    Server.run db
      { Server.default_config with Server.mode; Server.morsel = 16 }
      [ ("q", plan) ]
  in
  match r.Report.r_queries with
  | [ q ] -> (q.Report.qm_checksum, q.Report.qm_rows)
  | _ -> Alcotest.fail "expected exactly one served query"

let runplan_checksum db plan =
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let r, _, _ = Engine.run_plan db ~backend:Engine.interpreter ~timing ~name:"ref" plan in
  (Engine.checksum r.Engine.rows, r.Engine.output_count)

let differential_tests =
  List.map
    (fun (name, plan) ->
      Alcotest.test_case ("tiered = run_plan: " ^ name) `Quick (fun () ->
          let expect = runplan_checksum (make_db ()) plan in
          List.iter
            (fun mode ->
              let got = serve_checksum (make_db ()) mode plan in
              check
                Alcotest.(pair int64 int)
                (Server.mode_name mode) expect got)
            [ Server.Tiered; Server.Cached; Server.Static Engine.cranelift ]))
    fixed_plans

(* larger table so the tiered path actually switches mid-query: the
   background directemit compile finishes while interpreter morsels of the
   4096-row scan are still running *)
let switchover_test =
  Alcotest.test_case "hot-swap occurs and result still matches" `Quick (fun () ->
      let rows = 4096 in
      let plan =
        Algebra.Group_by
          {
            input = scan;
            keys = [ Expr.col 1 ];
            aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 0) ];
          }
      in
      let expect = runplan_checksum (make_db ~rows ()) plan in
      let db = make_db ~rows () in
      let r =
        Server.run db
          { Server.default_config with Server.mode = Server.Tiered; Server.morsel = 64 }
          [ ("q", plan) ]
      in
      let q = List.hd r.Report.r_queries in
      check Alcotest.(pair int64 int) "checksum" expect
        (q.Report.qm_checksum, q.Report.qm_rows);
      check Alcotest.bool "switched" true (q.Report.qm_switch_s <> None);
      check Alcotest.bool "ran both tiers" true
        (q.Report.qm_quanta_tier0 > 0 && q.Report.qm_quanta_tier1 > 0))

let fixed_stream = Server.make_stream ~seed:7L ~n:12 fixed_plans

let report_text r = Format.asprintf "%a" (Server.pp_report ~per_query:true) r

(* Poisson traffic over Zipf literal variants from two tenants, fast
   enough that a 2-slot admission queue sheds; paramized, so it binds *)
let golden_trace () =
  let pool =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Qcomp_workloads.Paramgen.stream ~seed:11L ~n:24)
  in
  let reqs =
    List.map
      (fun (name, plan, at, tenant) ->
        { Server.rq_name = name; rq_plan = plan; rq_arrival = at; rq_tenant = tenant })
      (Qcomp_workloads.Trafficgen.stream
         ~arrival:(Qcomp_workloads.Trafficgen.Poisson { qps = 100_000.0 })
         ~seed:5L ~n:40 ~tenants:2 pool)
  in
  Server.run_requests
    (Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1)
    {
      Server.default_config with
      Server.mode = Server.Tiered;
      admission_cap = Some 2;
      tenants = 2;
    }
    reqs

(* Golden event-driver reports: the MD5 of each per-query report, pinned
   to the bytes a reference build produced, so any lifecycle change that
   moves a virtual timestamp, a tier path, a cache counter or a shed
   decision fails here. *)
let golden_cases =
  List.concat_map
    (fun (label, mode, reopt, digests) ->
      List.map2
        (fun intra digest ->
          ( Printf.sprintf "%s intra=%d" label intra,
            (fun () ->
              Server.run (make_db ~rows:1024 ())
                { Server.default_config with Server.mode; reopt; morsel = 64; intra }
                fixed_stream),
            digest ))
        [ 1; 4 ] digests)
    [
      ( "static:cranelift", Server.Static Engine.cranelift, false,
        [ "2e29af98e906f55dd02f4fb61c2fb018"; "dda3e91dc0150b07db9afb5617e9dd70" ] );
      ( "cached", Server.Cached, false,
        [ "aafe64fd60fc0060db36760ecbe3e045"; "b7d3807fcf20abdd3bb32b49cb099cac" ] );
      ( "tiered", Server.Tiered, false,
        [ "727575fccfcee6783c276f435929503a"; "2f58f702afbf61dd2f8e185d87c1817d" ] );
      ( "tiered+reopt", Server.Tiered, true,
        [ "727575fccfcee6783c276f435929503a"; "2f58f702afbf61dd2f8e185d87c1817d" ] );
    ]
  @ [ ("poisson trace", golden_trace, "5d295fcf547fc9f28a6c81da158992db") ]

(* repeated stream: cache hits, byte-identical and golden reports *)
let determinism_test =
  Alcotest.test_case "same seed => byte-identical report; repeats hit cache" `Quick
    (fun () ->
      let cfg = { Server.default_config with Server.morsel = 64 } in
      let run () = Server.run (make_db ~rows:1024 ()) cfg fixed_stream in
      let a = report_text (run ()) and b = report_text (run ()) in
      check Alcotest.string "byte-identical" a b;
      check Alcotest.bool "cache hits" true ((run ()).Report.r_cache.Lru.hits > 0);
      List.iter
        (fun (label, run, digest) ->
          check Alcotest.string label digest
            (Digest.to_hex (Digest.string (report_text (run ())))))
        golden_cases)

(* code cache: eviction pressure still serves correct results *)
let eviction_test =
  Alcotest.test_case "tiny cache capacity: correct under eviction" `Quick
    (fun () ->
      (* enough rows that the adaptive choice leaves the interpreter-only
         fast path and the cache actually gets exercised *)
      let db = make_db ~rows:1024 () in
      let expects = List.map (fun (_, p) -> runplan_checksum (make_db ~rows:1024 ()) p) fixed_plans in
      let stream =
        List.concat [ fixed_plans; fixed_plans ]
        |> List.map (fun (n, p) -> (n, p))
      in
      let r =
        Server.run db
          { Server.default_config with Server.cache_capacity = 2; Server.morsel = 32 }
          stream
      in
      check Alcotest.bool "evictions happened" true
        (r.Report.r_cache.Lru.evictions > 0);
      List.iter
        (fun (q : Server.query_metrics) ->
          let i =
            match List.mapi (fun i (n, _) -> (n, i)) fixed_plans |> List.assoc_opt q.Report.qm_name with
            | Some i -> i
            | None -> Alcotest.fail "unknown query in report"
          in
          check Alcotest.(pair int64 int) ("evicted-cache " ^ q.Report.qm_name)
            (List.nth expects i)
            (q.Report.qm_checksum, q.Report.qm_rows))
        r.Report.r_queries)

(* code-memory lifecycle under eviction pressure: one warm db + cache
   serving repeated passes of a fuzzed stream with a tiny capacity must
   reach a steady state — resident generated code bounded by a
   capacity-derived limit instead of growing monotonically — while every
   served result still matches the classic run_plan path, and freed
   regions keep flowing back to the allocator *)
let eviction_pressure_test =
  Alcotest.test_case "eviction pressure: live code bounded, results exact"
    `Quick (fun () ->
      let db = make_db ~rows:1024 () in
      let expects =
        List.map
          (fun (n, p) -> (n, runplan_checksum (make_db ~rows:1024 ()) p))
          fixed_plans
      in
      let cfg =
        { Server.default_config with Server.cache_capacity = 2; Server.morsel = 32 }
      in
      let cache = Code_cache.create ~capacity:cfg.Server.cache_capacity in
      let stream = Server.make_stream ~seed:11L ~n:20 fixed_plans in
      let prev_freed = ref 0 in
      for pass = 1 to 3 do
        let r = Server.run ~cache db cfg stream in
        List.iter
          (fun (q : Server.query_metrics) ->
            check
              Alcotest.(pair int64 int)
              (Printf.sprintf "pass %d: %s matches run_plan" pass
                 q.Report.qm_name)
              (List.assoc q.Report.qm_name expects)
              (q.Report.qm_checksum, q.Report.qm_rows))
          r.Report.r_queries;
        (* every resident module is in the LRU (<= capacity), pinned by an
           in-flight query (<= workers) or compiled but not yet visible
           (<= compile_slots); +1 headroom *)
        let ms = Code_cache.mem_stats cache in
        let bound =
          (cfg.Server.cache_capacity + cfg.Server.workers
          + cfg.Server.compile_slots + 1)
          * ms.Code_cache.ms_max_entry_bytes
        in
        check Alcotest.bool
          (Printf.sprintf "pass %d: live %d <= bound %d" pass
             r.Report.r_live_code_bytes bound)
          true
          (r.Report.r_live_code_bytes <= bound);
        check Alcotest.bool
          (Printf.sprintf "pass %d: peak %d <= bound %d" pass
             r.Report.r_peak_code_bytes bound)
          true
          (r.Report.r_peak_code_bytes <= bound);
        check Alcotest.bool
          (Printf.sprintf "pass %d: eviction keeps freeing code" pass)
          true
          (r.Report.r_bytes_freed > !prev_freed);
        prev_freed := r.Report.r_bytes_freed;
        check Alcotest.bool
          (Printf.sprintf "pass %d: evictions happened" pass)
          true
          (r.Report.r_cache.Lru.evictions > 0)
      done)

(* morsel-wise execution: however the scan is sliced into quanta, the
   count over 100 rows is 100 and the rows equal one whole [execute] *)
let range_test =
  Alcotest.test_case "Exec morsel sizes reproduce Engine.execute" `Quick
    (fun () ->
      let db = make_db ~rows:100 () in
      let plan =
        Algebra.Group_by
          { input = scan; keys = []; aggs = [ Algebra.Count_star ] }
      in
      let cq = Engine.plan_to_ir db ~name:"range" plan in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      let cm =
        Qcomp_backend.Backend.compile_module Engine.interpreter ~timing
          ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind
          cq.Qcomp_codegen.Codegen.modul
      in
      let whole = (Engine.execute db cq cm).Engine.rows in
      check Alcotest.bool "execute counts 100" true
        (whole = [ [| Engine.Int 100L |] ]);
      List.iter
        (fun morsel ->
          let ex = Exec.start db cq cm in
          Fun.protect ~finally:(fun () -> Exec.dispose ex) @@ fun () ->
          Exec.run_to_end ex ~morsel;
          check Alcotest.bool
            (Printf.sprintf "morsel %d: same rows as execute" morsel)
            true
            (Exec.rows ex = whole))
        [ 1; 7; 50; 1000 ])

(* unpin-underflow regression: an unbalanced unpin used to drive ce_pins
   negative, which a later eviction could turn into a double dispose; it
   is now clamped, counted, and harmless *)
let unpin_underflow_test =
  Alcotest.test_case "double unpin is clamped, counted, single-dispose" `Quick
    (fun () ->
      let db = make_db ~rows:64 () in
      let cache = Code_cache.create ~capacity:1 in
      let e1, _ =
        Code_cache.get_or_compile cache db ~backend:Engine.cranelift ~name:"q1"
          scan
      in
      Code_cache.pin cache e1;
      Code_cache.unpin cache e1;
      (* the bug: this second unpin went to -1 *)
      Code_cache.unpin cache e1;
      check Alcotest.int "clamped at zero" 0 (Code_cache.live_pins cache);
      check Alcotest.int "underflow counted" 1
        (Code_cache.mem_stats cache).Code_cache.ms_pin_underflows;
      (* a later eviction must free the module exactly once *)
      let plan2 =
        Algebra.Filter { input = scan; pred = Expr.(col 1 <% int32 3) }
      in
      let _e2, _ =
        Code_cache.get_or_compile cache db ~backend:Engine.cranelift ~name:"q2"
          plan2
      in
      check Alcotest.int "evicted module freed exactly once"
        e1.Code_cache.ce_code_bytes
        (Code_cache.mem_stats cache).Code_cache.ms_bytes_freed;
      check Alcotest.int "no further underflows" 1
        (Code_cache.mem_stats cache).Code_cache.ms_pin_underflows)

(* ---------------- parallel (Domain-pool) serving ---------------- *)

let result_multiset r =
  List.sort compare
    (List.map
       (fun (q : Server.query_metrics) ->
         (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
       r.Report.r_queries)

(* the Domain pool must produce the sequential scheduler's per-query
   results — rows and checksums as a multiset (completion order and every
   timing metric are wall-clock and excluded) — for all three policies *)
let parallel_differential_test =
  Alcotest.test_case
    "parallel = sequential: result multiset, 3 modes x 2 seeds" `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let stream = Server.make_stream ~seed ~n:10 fixed_plans in
          List.iter
            (fun mode ->
              let cfg =
                {
                  Server.default_config with
                  Server.mode;
                  Server.morsel = 64;
                }
              in
              let seq = Server.run (make_db ~rows:1024 ()) cfg stream in
              let cache = Code_cache.create ~capacity:cfg.Server.cache_capacity in
              let par =
                Server.run ~cache ~parallel:true (make_db ~rows:1024 ())
                  { cfg with Server.workers = 3 } stream
              in
              check Alcotest.int
                (Printf.sprintf "%s seed %Ld: no live pins"
                   (Server.mode_name mode) seed)
                0 (Code_cache.live_pins cache);
              check
                Alcotest.(list (triple string int int64))
                (Printf.sprintf "%s seed %Ld" (Server.mode_name mode) seed)
                (result_multiset seq) (result_multiset par);
              check Alcotest.int
                (Printf.sprintf "%s seed %Ld: live code bytes"
                   (Server.mode_name mode) seed)
                seq.Report.r_live_code_bytes par.Report.r_live_code_bytes)
            [ Server.Tiered; Server.Cached; Server.Static Engine.cranelift ])
        [ 3L; 11L ])

(* multiple domains hammering a 2-entry cache: evictions, deferred
   disposal of pinned entries, background compiles and hot-swaps all race;
   results must stay exact and the pin accounting must balance *)
let parallel_eviction_test =
  Alcotest.test_case "parallel eviction stress: tiny cache, 4 domains" `Quick
    (fun () ->
      let db = make_db ~rows:1024 () in
      let expects =
        List.map
          (fun (n, p) -> (n, runplan_checksum (make_db ~rows:1024 ()) p))
          fixed_plans
      in
      let cfg =
        {
          Server.default_config with
          Server.workers = 4;
          Server.cache_capacity = 2;
          Server.morsel = 32;
          Server.mode = Server.Tiered;
        }
      in
      let cache = Code_cache.create ~capacity:cfg.Server.cache_capacity in
      let stream = Server.make_stream ~seed:13L ~n:24 fixed_plans in
      let r = Server.run ~cache ~parallel:true db cfg stream in
      check Alcotest.int "all queries served" 24
        (List.length r.Report.r_queries);
      List.iter
        (fun (q : Server.query_metrics) ->
          check
            Alcotest.(pair int64 int)
            ("parallel evicted-cache " ^ q.Report.qm_name)
            (List.assoc q.Report.qm_name expects)
            (q.Report.qm_checksum, q.Report.qm_rows))
        r.Report.r_queries;
      check Alcotest.bool "evictions happened" true
        (r.Report.r_cache.Lru.evictions > 0);
      check Alcotest.bool "eviction freed code" true (r.Report.r_bytes_freed > 0);
      check Alcotest.int "no live pins after quiesce" 0
        (Code_cache.live_pins cache);
      check Alcotest.int "no pin underflows" 0
        (Code_cache.mem_stats cache).Code_cache.ms_pin_underflows)

(* ---------------- observation-driven re-optimization ---------------- *)

(* --reopt changes only the schedule (which tier runs which morsel), never
   the data: per-query rows/checksums must match the static-estimate
   Tiered baseline in both drivers *)
let reopt_differential_test =
  Alcotest.test_case
    "reopt = static-estimate tiered: result multiset, 2 seeds, both drivers"
    `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let stream = Server.make_stream ~seed ~n:10 fixed_plans in
          let cfg =
            {
              Server.default_config with
              Server.mode = Server.Tiered;
              Server.morsel = 64;
            }
          in
          let rcfg = { cfg with Server.reopt = true } in
          let base = Server.run (make_db ~rows:1024 ()) cfg stream in
          let seq = Server.run (make_db ~rows:1024 ()) rcfg stream in
          let cache = Code_cache.create ~capacity:rcfg.Server.cache_capacity in
          let par =
            Server.run ~cache ~parallel:true (make_db ~rows:1024 ())
              { rcfg with Server.workers = 3 } stream
          in
          check Alcotest.int
            (Printf.sprintf "seed %Ld: no live pins" seed)
            0 (Code_cache.live_pins cache);
          check
            Alcotest.(list (triple string int int64))
            (Printf.sprintf "seed %Ld: reopt sequential" seed)
            (result_multiset base) (result_multiset seq);
          check
            Alcotest.(list (triple string int int64))
            (Printf.sprintf "seed %Ld: reopt parallel" seed)
            (result_multiset base) (result_multiset par))
        [ 5L; 17L ])

(* every step of a tier path goes to a rung with a higher pinned rate *)
let rising db tiers =
  let rate = Costmodel.exec_rate db.Engine.target in
  let rec go = function
    | a :: (b :: _ as rest) -> rate a < rate b && go rest
    | _ -> true
  in
  go tiers

(* the prior's pick for [plan]: what a Tiered query submits at once *)
let prior_pick db plan =
  fst
    (Engine.adaptive_backend db plan
       (Engine.plan_to_ir db ~name:"prior" plan).Qcomp_codegen.Codegen.modul)

(* the misfire the controller exists to correct: every scan of the fan-out
   query is tiny, so the prior prices it as a few hundred rows of work and
   picks a weak rung; its join output is ~3 orders of magnitude larger
   than any input, and the observed cycles-per-row send it further up the
   ladder *)
let deceptive_upgrade_test =
  Alcotest.test_case
    "deceptive fan-out query: upgraded mid-flight past its static pick"
    `Quick
    (fun () ->
      let q = Qcomp_workloads.Tpch.deceptive in
      let name = q.Qcomp_workloads.Spec.q_name
      and plan = q.Qcomp_workloads.Spec.q_plan in
      let expect =
        runplan_checksum
          (Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1)
          plan
      in
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let static_pick = prior_pick db plan in
      check Alcotest.bool
        (Printf.sprintf "the prior under-predicts: %s is below the top rung" static_pick)
        true
        (Engine.stronger_than db static_pick <> []);
      let r =
        Server.run db
          {
            Server.default_config with
            Server.mode = Server.Tiered;
            Server.reopt = true;
            Server.morsel = 32;
          }
          [ (name, plan) ]
      in
      let m = List.hd r.Report.r_queries in
      check
        Alcotest.(pair int64 int)
        "checksum matches run_plan" expect
        (m.Report.qm_checksum, m.Report.qm_rows);
      check Alcotest.string "starts on the interpreter" "interpreter"
        (List.hd m.Report.qm_tiers);
      check Alcotest.bool "upgraded mid-flight" true
        (List.length m.Report.qm_tiers > 1);
      check Alcotest.bool
        (Printf.sprintf "finishes stronger than the prior's %s (tier path: %s)"
           static_pick (String.concat "->" m.Report.qm_tiers))
        true
        (List.mem m.Report.qm_backend
           (List.map fst (Engine.stronger_than db static_pick))))

(* at a larger scale factor the same query keeps looking worse as it runs:
   the prior buys the cheap rung, the observations on the probe pipeline
   justify a second, stronger one. Every step must go to a rung with a
   higher rate, at sf 2 and at sf 4 alike. *)
let second_upgrade_test =
  Alcotest.test_case "observed work keeps growing => second upgrade" `Quick
    (fun () ->
      let q = Qcomp_workloads.Tpch.deceptive in
      let name = q.Qcomp_workloads.Spec.q_name
      and plan = q.Qcomp_workloads.Spec.q_plan in
      List.iter
        (fun sf ->
          let expect =
            runplan_checksum
              (Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf)
              plan
          in
          let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf in
          let r =
            Server.run db
              {
                Server.default_config with
                Server.mode = Server.Tiered;
                Server.reopt = true;
                Server.morsel = 64;
              }
              [ (name, plan) ]
          in
          let m = List.hd r.Report.r_queries in
          let path = String.concat "->" m.Report.qm_tiers in
          check
            Alcotest.(pair int64 int)
            (Printf.sprintf "sf %d: checksum matches run_plan" sf)
            expect
            (m.Report.qm_checksum, m.Report.qm_rows);
          if sf = 2 then
            check Alcotest.bool
              (Printf.sprintf "sf 2: two upgrades (tier path: %s)" path)
              true
              (List.length m.Report.qm_tiers >= 3);
          check Alcotest.bool
            (Printf.sprintf "sf %d: every step raises the rate (tier path: %s)" sf path)
            true (rising db m.Report.qm_tiers))
        [ 2; 4 ])

(* a resident hit at the Tiered start is a real LRU hit: it refreshes the
   entry's recency, so under capacity pressure a hot plan's compiled code
   outlives the colder plans' entries instead of going in insertion order *)
let recency_test =
  Alcotest.test_case "reopt: resident hits keep a hot plan's code cached" `Quick
    (fun () ->
      let hot = ("agg", List.assoc "agg" fixed_plans) in
      let cold = List.filter (fun (n, _) -> n <> "agg") fixed_plans in
      (* hot, cold, hot, cold, ..., hot: spaced so every query and its
         background compile finish before the next arrival *)
      let stream = List.concat_map (fun c -> [ hot; c ]) cold @ [ hot ] in
      let reqs =
        List.mapi
          (fun i (name, plan) ->
            { Server.rq_name = name; rq_plan = plan; rq_arrival = 0.01 *. float_of_int i;
              rq_tenant = 0 })
          stream
      in
      let r =
        Server.run_requests (make_db ~rows:1024 ())
          {
            Server.default_config with
            Server.mode = Server.Tiered;
            reopt = true;
            workers = 1;
            cache_capacity = 4;
            morsel = 64;
          }
          reqs
      in
      check Alcotest.bool "the cache evicted" true (r.Report.r_cache.Lru.evictions > 0);
      List.iteri
        (fun i (q : Server.query_metrics) ->
          if i > 0 then
            check Alcotest.bool
              (Printf.sprintf "repeat %d of the hot plan starts compiled (tier path %s)" i
                 (String.concat "->" q.Report.qm_tiers))
              true
              (q.Report.qm_cache_hit && List.hd q.Report.qm_tiers <> "interpreter"))
        (List.filter (fun (q : Server.query_metrics) -> q.Report.qm_name = "agg")
           r.Report.r_queries))

(* ---------------- serving-memory accounting ---------------- *)

(* pre-fix, every execution leaked its state block, tuple buffers and hash
   arenas (Memory.alloc was a pure bump allocator): each 60-query pass
   allocates ~43 MB against a 16 MiB arena, so a single pass used to die
   of Fault "out of memory" part-way in, and this test serves 10 passes.
   Live data bytes must be flat across passes and the cumulative freed
   bytes must exceed the arena size many times over (proof the allocator
   reuses memory rather than growing). *)
let soak_test =
  Alcotest.test_case "bounded-memory soak: long stream recycles data blocks"
    `Slow
    (fun () ->
      let mem_size = 16 * 1024 * 1024 in
      let db = Engine.create_db ~mem_size Qcomp_vm.Target.x64 in
      let _ =
        Engine.add_table db schema ~rows:1024 ~seed:123L
          [| Datagen.Uniform (-50, 50); Datagen.Uniform (0, 5);
             Datagen.DecimalRange (-300, 300);
             Datagen.Words (Datagen.word_pool, 1) |]
      in
      let cfg =
        {
          Server.default_config with
          Server.mode = Server.Tiered;
          Server.cache_capacity = 2;
          Server.morsel = 64;
        }
      in
      let cache = Code_cache.create ~capacity:cfg.Server.cache_capacity in
      let stream = Server.make_stream ~seed:9L ~n:60 fixed_plans in
      let live_after_first = ref 0 in
      let freed_total = ref 0 in
      for pass = 1 to 10 do
        let r = Server.run ~cache db cfg stream in
        check Alcotest.int
          (Printf.sprintf "pass %d: all queries served" pass)
          60
          (List.length r.Report.r_queries);
        freed_total := r.Report.r_freed_data_bytes;
        if pass = 1 then live_after_first := r.Report.r_live_data_bytes
        else
          check Alcotest.int
            (Printf.sprintf "pass %d: live data bytes flat" pass)
            !live_after_first r.Report.r_live_data_bytes
      done;
      check Alcotest.bool "cumulative recycling exceeds the arena" true
        (!freed_total > mem_size))

(* every registered back-end must have an explicit coefficient row and
   execution rate; unknown names fail loud instead of silently getting
   mid-range numbers *)
let costmodel_coverage_test =
  Alcotest.test_case "cost model covers every registered back-end" `Quick
    (fun () ->
      let db = make_db () in
      let cq = Engine.plan_to_ir db ~name:"cov" scan in
      let m = cq.Qcomp_codegen.Codegen.modul in
      List.iter
        (fun b ->
          let nm = Qcomp_backend.Backend.name b in
          check Alcotest.bool
            (nm ^ " has a positive compile cost")
            true
            (Costmodel.compile_seconds ~backend:nm m > 0.0);
          check Alcotest.bool
            (nm ^ " has a positive execution rate")
            true
            (Costmodel.exec_rate db.Engine.target nm > 0.0))
        (Engine.all_backends db.Engine.target);
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      check Alcotest.bool "unknown back-end: compile cost fails loud" true
        (raises (fun () -> Costmodel.compile_seconds ~backend:"no-such" m));
      check Alcotest.bool "unknown back-end: exec rate fails loud" true
        (raises (fun () -> Costmodel.exec_rate db.Engine.target "no-such"));
      check Alcotest.bool "back-end the target lacks: exec rate fails loud" true
        (raises (fun () -> Costmodel.exec_rate Qcomp_vm.Target.a64 "directemit")))

(* both drivers reject every non-positive sizing field identically (no
   silent max-1 clamps), naming the field in the message *)
let config_validation_test =
  Alcotest.test_case "config validation: both drivers, every field" `Quick
    (fun () ->
      let c = { Server.default_config with Server.mode = Server.Tiered } in
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun (field, cfg) ->
          let raises driver f =
            match f () with
            | (_ : Server.report) ->
                Alcotest.failf "%s accepted a non-positive %s" driver field
            | exception Invalid_argument msg ->
                check Alcotest.bool
                  (Printf.sprintf "%s names the field (%s)" driver msg)
                  true (contains msg field)
          in
          raises "event driver" (fun () -> Server.run (make_db ()) cfg [ ("q", scan) ]);
          raises "domain pool" (fun () ->
              Server.run ~parallel:true (make_db ()) cfg [ ("q", scan) ]))
        [
          ("workers", { c with Server.workers = 0 });
          ("compile_slots", { c with Server.compile_slots = 0 });
          ("morsel", { c with Server.morsel = 0 });
          ("cache_capacity", { c with Server.cache_capacity = 0 });
          ("tenants", { c with Server.tenants = 0 });
          ("cache_shards", { c with Server.cache_shards = 0 });
          ("intra", { c with Server.intra = 0 });
          ("admission_cap", { c with Server.admission_cap = Some 0 });
        ])

(* Static mode has no cache semantics (the full modelled compile is
   charged every time), so its lookups must not pollute the hit/miss
   stats: a report claiming a 90% hit rate next to full compile charges
   would be meaningless *)
let static_stat_bypass_test =
  Alcotest.test_case "static mode bypasses cache hit/miss stats" `Quick
    (fun () ->
      let db = make_db ~rows:256 () in
      let cache = Code_cache.create ~capacity:8 in
      let cfg =
        {
          Server.default_config with
          Server.mode = Server.Static Engine.cranelift;
        }
      in
      let stream = Server.make_stream ~seed:3L ~n:8 fixed_plans in
      let r1 = Server.run ~cache db cfg stream in
      let r2 = Server.run ~cache db cfg stream in
      List.iter
        (fun (r : Server.report) ->
          check Alcotest.int "no hits counted" 0 r.Report.r_cache.Lru.hits;
          check Alcotest.int "no misses counted" 0 r.Report.r_cache.Lru.misses;
          List.iter
            (fun (q : Server.query_metrics) ->
              check Alcotest.bool
                (q.Report.qm_name ^ ": full compile charged")
                true
                (q.Report.qm_compile_s > 0.0))
            r.Report.r_queries)
        [ r1; r2 ])

(* ---------------- fuzzed plans ---------------- *)

(* reuse the generator and printer from the cross-back-end fuzz suite: the
   tiered server must agree with run_plan on arbitrary well-typed plans,
   including error outcomes (overflow, division by zero) *)
let fuzz_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~print:Test_fuzz_plans.plan_str
       ~name:"fuzzed plans: tiered serving = run_plan" Test_fuzz_plans.gen_plan
       (fun plan ->
         let expect =
           match runplan_checksum (make_db ()) plan with
           | cs -> Ok cs
           | exception Qcomp_runtime.Rt_error.Query_error e -> Error e
           | exception Expr.Type_error e -> Error ("type: " ^ e)
         in
         let got =
           match serve_checksum (make_db ()) Server.Tiered plan with
           | cs -> Ok cs
           | exception Qcomp_runtime.Rt_error.Query_error e -> Error e
           | exception Expr.Type_error e -> Error ("type: " ^ e)
         in
         if expect <> got then
           QCheck2.Test.fail_reportf "tiered differs: run_plan=%s tiered=%s"
             (match expect with
             | Ok (c, n) -> Printf.sprintf "rows(%Lx,%d)" c n
             | Error e -> "err:" ^ e)
             (match got with
             | Ok (c, n) -> Printf.sprintf "rows(%Lx,%d)" c n
             | Error e -> "err:" ^ e)
         else true))

(* ---------------- relocatable artifacts & snapshots ---------------- *)

(* exercises string constants on both SSO paths: inline (<= 12 bytes) and
   out-of-line body, which a snapshot must re-materialize at the exact
   addresses the artifact baked as immediates *)
let str_plan =
  Algebra.Filter
    {
      input = scan;
      pred =
        Expr.Or
          ( Expr.(col 3 =% str "fox"),
            Expr.(col 3 =% str "a-string-far-too-long-for-sso") );
    }

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* every back-end's relocatable artifact must survive
   serialize -> deserialize -> link and execute bit-identically to the
   module the back-end links directly *)
let artifact_roundtrip_test =
  Alcotest.test_case
    "artifact round-trip: serialize/deserialize/link = direct compile" `Quick
    (fun () ->
      let db = make_db () in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      let plan = List.assoc "join" fixed_plans in
      let cq = Engine.plan_to_ir db ~name:"rt" plan in
      let modul = cq.Qcomp_codegen.Codegen.modul in
      List.iter
        (fun b ->
          match Qcomp_backend.Backend.compile_artifact b with
          | None -> ()
          | Some compile ->
              let name = Qcomp_backend.Backend.name b in
              let cm_direct =
                Qcomp_backend.Backend.compile_module b ~timing
                  ~emu:db.Engine.emu ~registry:db.Engine.registry
                  ~unwind:db.Engine.unwind modul
              in
              let r1 = Engine.execute db cq cm_direct in
              let art = compile ~timing ~target:db.Engine.target
                  ~registry:db.Engine.registry modul
              in
              let art' =
                Qcomp_backend.Artifact.deserialize
                  (Qcomp_backend.Artifact.serialize art)
              in
              let cm2 =
                Qcomp_backend.Backend.link_artifact ~timing ~emu:db.Engine.emu
                  ~registry:db.Engine.registry ~unwind:db.Engine.unwind art'
              in
              let r2 = Engine.execute db cq cm2 in
              check Alcotest.int (name ^ " rows") r1.Engine.output_count
                r2.Engine.output_count;
              check Alcotest.int64 (name ^ " checksum")
                (Engine.checksum r1.Engine.rows)
                (Engine.checksum r2.Engine.rows);
              Engine.dispose_module db cm2;
              Engine.dispose_module db cm_direct)
        (Engine.all_backends db.Engine.target))

(* the plan wire codec: strict round-trip on every fixed plan, loud
   failure on truncation and trailing garbage *)
let wire_roundtrip_test =
  Alcotest.test_case "plan wire codec round-trips, rejects corruption" `Quick
    (fun () ->
      List.iter
        (fun (nm, p) ->
          let s = Wire.to_string p in
          if Wire.of_string s <> p then Alcotest.failf "%s: decode <> plan" nm;
          check Alcotest.bool (nm ^ " truncation fails loud") true
            (raises_invalid (fun () ->
                 Wire.of_string (String.sub s 0 (String.length s - 1))));
          check Alcotest.bool (nm ^ " trailing bytes fail loud") true
            (raises_invalid (fun () -> Wire.of_string (s ^ "\x00"))))
        (("strings", str_plan) :: fixed_plans))

(* key_v folds format version, back-end and target into the identity, so
   any of them changing makes a snapshot record unfindable by design *)
let key_v_test =
  Alcotest.test_case "key_v separates version/backend/target" `Quick (fun () ->
      let base =
        Fingerprint.key_v ~version:1 ~backend:"gcc" ~target:"x86-64" scan
      in
      List.iter
        (fun (what, k) ->
          if Int64.equal base k then Alcotest.failf "%s does not change key_v" what)
        [
          ("version", Fingerprint.key_v ~version:2 ~backend:"gcc" ~target:"x86-64" scan);
          ("backend", Fingerprint.key_v ~version:1 ~backend:"clif" ~target:"x86-64" scan);
          ("target", Fingerprint.key_v ~version:1 ~backend:"gcc" ~target:"aarch64" scan);
          ("plan", Fingerprint.key_v ~version:1 ~backend:"gcc" ~target:"x86-64" str_plan);
        ])

let snapshot_plans =
  [
    ("scan", scan);
    ("strings", str_plan);
    ("join", List.assoc "join" fixed_plans);
    ("agg", List.assoc "agg" fixed_plans);
  ]

let with_snapshot_file f =
  let file = Filename.temp_file "qcomp_test_snap" ".qcss" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

(* fill a fresh cache from [plans] on a fresh db, returning per-plan
   (rows, checksum) via the artifact-linked module *)
let fill_cache ~capacity ~backend plans =
  let db = make_db () in
  let cache = Code_cache.create ~capacity in
  let sums =
    List.map
      (fun (nm, p) ->
        let e, hit = Code_cache.get_or_compile cache db ~backend ~name:nm p in
        if hit then Alcotest.failf "%s: cold compile reported as hit" nm;
        let cq, cm, _ = Code_cache.force cache db e in
        let r = Engine.execute db cq cm in
        (nm, r.Engine.output_count, Engine.checksum r.Engine.rows))
      plans
  in
  (db, cache, sums)

(* the tentpole property: save in one process image, load against a fresh
   identically-built database, and every snapshot query is a cache hit
   that re-links and reproduces the cold rows/checksums exactly *)
let snapshot_roundtrip_test =
  Alcotest.test_case "snapshot save/load: warm hits, identical results" `Quick
    (fun () ->
      with_snapshot_file (fun file ->
          let _db1, cache1, sums =
            fill_cache ~capacity:8 ~backend:Engine.cranelift snapshot_plans
          in
          Code_cache.save cache1 file;
          let db2 = make_db () in
          let cache2 = Code_cache.load ~capacity:8 ~db:db2 file in
          check Alcotest.int "all records loaded"
            (List.length snapshot_plans)
            (Code_cache.stats cache2).Lru.entries;
          List.iter2
            (fun (nm, p) (nm', rows, sum) ->
              assert (String.equal nm nm');
              let e, hit =
                Code_cache.get_or_compile cache2 db2
                  ~backend:Engine.cranelift ~name:nm p
              in
              check Alcotest.bool (nm ^ " warm lookup is a hit") true hit;
              let cq, cm, _ = Code_cache.force cache2 db2 e in
              let r = Engine.execute db2 cq cm in
              check Alcotest.int (nm ^ " rows") rows r.Engine.output_count;
              check Alcotest.int64 (nm ^ " checksum") sum
                (Engine.checksum r.Engine.rows))
            snapshot_plans sums))

(* loading a snapshot larger than the cache inserts in LRU order and
   evicts the overflow cleanly: no pin drift, no phantom bytes freed
   (evicted snapshot entries were never linked, so they owned no code) *)
let snapshot_overflow_test =
  Alcotest.test_case "snapshot overflow: clean LRU eviction on load" `Quick
    (fun () ->
      with_snapshot_file (fun file ->
          let _db1, cache1, sums =
            fill_cache ~capacity:8 ~backend:Engine.cranelift snapshot_plans
          in
          Code_cache.save cache1 file;
          let db2 = make_db () in
          let cache2 = Code_cache.load ~capacity:2 ~db:db2 file in
          let s = Code_cache.stats cache2 in
          check Alcotest.int "entries at capacity" 2 s.Lru.entries;
          check Alcotest.int "overflow evicted" 2 s.Lru.evictions;
          check Alcotest.int "no phantom bytes freed" 0
            (Code_cache.mem_stats cache2).Code_cache.ms_bytes_freed;
          check Alcotest.int "no pins" 0 (Code_cache.live_pins cache2);
          (* the two hottest (most recently compiled) plans survive and
             must still link and reproduce the cold results *)
          List.iter
            (fun (nm, rows, sum) ->
              let p = List.assoc nm snapshot_plans in
              let e, hit =
                Code_cache.get_or_compile cache2 db2
                  ~backend:Engine.cranelift ~name:nm p
              in
              check Alcotest.bool (nm ^ " survivor is a hit") true hit;
              let cq, cm, _ = Code_cache.force cache2 db2 e in
              let r = Engine.execute db2 cq cm in
              check Alcotest.int (nm ^ " rows") rows r.Engine.output_count;
              check Alcotest.int64 (nm ^ " checksum") sum
                (Engine.checksum r.Engine.rows))
            (List.filteri (fun i _ -> i >= 2) sums)))

(* corrupted, stale or foreign snapshots must raise Invalid_argument —
   never produce a bad link or an emulator trap *)
let snapshot_corruption_test =
  Alcotest.test_case "snapshot corruption/version/layout fail loud" `Quick
    (fun () ->
      with_snapshot_file (fun file ->
          let _db1, cache1, _ =
            fill_cache ~capacity:8 ~backend:Engine.cranelift snapshot_plans
          in
          Code_cache.save cache1 file;
          let image =
            let ic = open_in_bin file in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let load_bytes s =
            with_snapshot_file (fun f2 ->
                let oc = open_out_bin f2 in
                output_string oc s;
                close_out oc;
                ignore (Code_cache.load ~capacity:8 ~db:(make_db ()) f2))
          in
          let mutate i f =
            let b = Bytes.of_string image in
            Bytes.set b i (f (Bytes.get b i));
            Bytes.to_string b
          in
          let flip c = Char.chr (Char.code c lxor 0x40) in
          check Alcotest.bool "truncated file" true
            (raises_invalid (fun () ->
                 load_bytes (String.sub image 0 (String.length image / 2))));
          check Alcotest.bool "empty file" true
            (raises_invalid (fun () -> load_bytes ""));
          check Alcotest.bool "bad magic" true
            (raises_invalid (fun () -> load_bytes (mutate 0 flip)));
          check Alcotest.bool "format version bump" true
            (raises_invalid (fun () ->
                 load_bytes (mutate 4 (fun c -> Char.chr (Char.code c + 1)))));
          (* flip one payload byte in each quarter: the checksum (or a
             structural check behind it) must catch every one *)
          List.iter
            (fun frac ->
              let i = String.length image * frac / 8 in
              let i = max 12 (min i (String.length image - 9)) in
              check Alcotest.bool
                (Printf.sprintf "bit flip at byte %d" i)
                true
                (raises_invalid (fun () -> load_bytes (mutate i flip))))
            [ 2; 3; 4; 5; 6; 7 ];
          (* a database with a different layout (row count) must be
             rejected: the artifacts bake column addresses *)
          check Alcotest.bool "layout mismatch" true
            (raises_invalid (fun () ->
                 ignore
                   (Code_cache.load ~capacity:8 ~db:(make_db ~rows:32 ()) file)))))

(* the snapshot path must work for every artifact-producing back-end, not
   just cranelift: each one's warm module reproduces its cold checksum *)
let snapshot_all_backends_test =
  Alcotest.test_case "snapshot round-trip for every back-end" `Quick (fun () ->
      List.iter
        (fun b ->
          if Qcomp_backend.Backend.compile_artifact b <> None then
            with_snapshot_file (fun file ->
                let _db1, cache1, sums =
                  fill_cache ~capacity:4 ~backend:b [ ("strings", str_plan) ]
                in
                Code_cache.save cache1 file;
                let db2 = make_db () in
                let cache2 = Code_cache.load ~capacity:4 ~db:db2 file in
                let nm = Qcomp_backend.Backend.name b in
                let e, hit =
                  Code_cache.get_or_compile cache2 db2 ~backend:b
                    ~name:"strings" str_plan
                in
                check Alcotest.bool (nm ^ " warm hit") true hit;
                let cq, cm, _ = Code_cache.force cache2 db2 e in
                let r = Engine.execute db2 cq cm in
                let _, rows, sum = List.hd sums in
                check Alcotest.int (nm ^ " rows") rows r.Engine.output_count;
                check Alcotest.int64 (nm ^ " checksum") sum
                  (Engine.checksum r.Engine.rows)))
        (Engine.all_backends Qcomp_vm.Target.x64))

let suite =
  lru_tests @ fingerprint_tests @ sim_tests @ differential_tests
  @ [
      switchover_test; determinism_test; eviction_test;
      eviction_pressure_test; range_test; unpin_underflow_test;
      parallel_differential_test; parallel_eviction_test;
      reopt_differential_test; deceptive_upgrade_test; second_upgrade_test; recency_test;
      soak_test; costmodel_coverage_test; config_validation_test;
      static_stat_bypass_test; fuzz_test;
      artifact_roundtrip_test; wire_roundtrip_test; key_v_test;
      snapshot_roundtrip_test; snapshot_overflow_test;
      snapshot_corruption_test; snapshot_all_backends_test;
    ]
