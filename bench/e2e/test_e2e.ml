(* Order statistics and batching of the end-to-end benchmark. *)

let close = Alcotest.float 1e-12

(* Serving percentiles must read the same whether the benchmark or the
   serving report computes them: feed one latency list to both. *)
let test_matches_report () =
  let db = Qcomp_engine.Engine.create_db ~mem_size:(1 lsl 20) Qcomp_vm.Target.x64 in
  let cache = Qcomp_server.Code_cache.create ~capacity:1 in
  let rng = Qcomp_support.Rng.create 7L in
  let lats = List.init 1000 (fun _ -> Qcomp_support.Rng.float rng) in
  let qm lat =
    {
      Qcomp_server.Report.qm_name = "q";
      qm_fp = 0L;
      qm_backend = "interpreter";
      qm_arrival = 0.0;
      qm_start = 0.0;
      qm_finish = lat;
      qm_compile_s = 0.0;
      qm_cache_hit = false;
      qm_switch_s = None;
      qm_quanta_tier0 = 0;
      qm_quanta_tier1 = 0;
      qm_tiers = [];
      qm_exec_cycles = 0;
      qm_rows = 0;
      qm_checksum = 0L;
      qm_tenant = 0;
      qm_first_s = lat;
    }
  in
  let r =
    Qcomp_server.Report.assemble db cache ~mode:"test" ~makespan:1.0 (List.map qm lats)
  in
  Alcotest.check close "p50" r.Qcomp_server.Report.r_p50_latency (Stats.percentile lats 0.50);
  Alcotest.check close "p99" r.Qcomp_server.Report.r_p99_latency (Stats.percentile lats 0.99)

let test_refuses_thin_tail () =
  let xs n = List.init n float_of_int in
  (* 1,000 samples: rank 990, ten beyond *)
  Alcotest.check close "p99 of 1000" 989.0 (Stats.percentile (xs 1000) 0.99);
  Alcotest.check_raises "p99 of 999"
    (Invalid_argument "Stats.percentile: p99 of 999 samples leaves 9 beyond it (< 10)")
    (fun () -> ignore (Stats.percentile (xs 999) 0.99));
  Alcotest.check_raises "p50 of 19"
    (Invalid_argument "Stats.percentile: p50 of 19 samples leaves 9 beyond it (< 10)")
    (fun () -> ignore (Stats.percentile (xs 19) 0.50));
  Alcotest.check close "p50 of 20" 9.0 (Stats.percentile (xs 20) 0.50)

(* statistics.median / statistics.quantiles(xs, n=4) in Python give these *)
let test_median_quartiles () =
  Alcotest.check close "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, _, q3 = Stats.quartiles [ 1.0; 2.0 ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  Alcotest.check close "spread" (5.5 /. 5.5) (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

(* A fake clock advancing 0.03 s per sweep: seven sweeps reach 0.2 s. *)
let test_batching () =
  let t = ref 0.0 in
  let now () = !t in
  let calls = ref 0 in
  let per_call, n =
    Stats.batched ~now ~min_s:0.2 (fun () ->
        incr calls;
        t := !t +. 0.03)
  in
  Alcotest.(check int) "sweeps" 7 n;
  Alcotest.(check int) "calls" 7 !calls;
  Alcotest.check (Alcotest.float 1e-9) "seconds per sweep" 0.03 per_call;
  (* a sweep longer than the minimum is one sample on its own *)
  let per_call, n = Stats.batched ~now ~min_s:0.2 (fun () -> t := !t +. 0.5) in
  Alcotest.(check int) "one long sweep" 1 n;
  Alcotest.check (Alcotest.float 1e-9) "its time" 0.5 per_call

let test_verdict () =
  let v = Stats.verdict ~lower_better:true ~bound:0.1 in
  let parent = [ 1.0; 1.01; 0.99; 1.0 ] in
  Alcotest.(check string) "within" "ok" (Stats.verdict_name (v parent [ 1.05; 1.04; 1.06; 1.05 ]));
  Alcotest.(check string) "worse" "worse" (Stats.verdict_name (v parent [ 1.2; 1.21; 1.19; 1.2 ]));
  Alcotest.(check string) "better" "better" (Stats.verdict_name (v parent [ 0.8; 0.81; 0.79; 0.8 ]));
  Alcotest.(check string) "noisy" "unresolved"
    (Stats.verdict_name (v [ 1.0; 2.0; 0.5; 1.5 ] [ 1.2; 1.3; 1.1; 1.25 ]));
  Alcotest.(check string) "noisy but dominated" "better"
    (Stats.verdict_name (v [ 1.0; 2.0; 1.5; 1.8 ] [ 0.5; 0.6; 0.9; 0.7 ]))

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Num 0.1);
        ("b", Json.Arr [ Json.Int 3; Json.Bool true; Json.Null ]);
        ("c", Json.Str "x\"y");
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.parse (Json.to_string j) = j)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile matches Report" `Quick test_matches_report;
          Alcotest.test_case "thin tails refused" `Quick test_refuses_thin_tail;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "compile-sample batching" `Quick test_batching;
          Alcotest.test_case "compare verdict" `Quick test_verdict;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
    ]
