(* Benchmark harness: regenerates every table and figure of
   "Compile-Time Analysis of Compiler Frameworks for Query Compilation"
   (CGO 2024). See DESIGN.md for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results.

   Usage:  bench/main.exe [table1|fig2|fig3|table2|fig4|fig5|table3|fig6|
                           fig7|serve|serve-reopt|serve-persist|serve-param|
                           serve-scaling|fallbacks|ablation-struct|
                           ablation-codemodel|ablation-tm|bechamel|all]

   Scale factors are chosen so the full suite completes in minutes; the
   mapping to the paper's SF10/SF100 is documented in EXPERIMENTS.md. *)

open Qcomp_engine
open Qcomp_support
module Target = Qcomp_vm.Target
module Orc = Qcomp_llvm.Orc

let sf_compile = 2 (* compile-time breakdowns over all 103 DS queries *)
let sf_exec = 2 (* execution measurements *)
let sf_tpch_small = 2 (* the paper's SF10 analogue *)
let sf_tpch_big = 100 (* the paper's SF100 analogue *)

let line () = print_endline (String.make 72 '-')

let header title =
  line ();
  print_endline title;
  line ()

let pct part total = if total > 0.0 then 100.0 *. part /. total else 0.0

(* A gate's verdict as printed; every target whose summary prints a
   VIOLATION also exits 1. *)
let gate ok = if ok then "OK" else "VIOLATION"

let print_breakdown (timing : Timing.t) =
  (* top-level phases with nested sub-phases indented (-ftime-report style) *)
  let total = Timing.total timing in
  List.iter
    (fun (path, secs, _count) ->
      let depth = String.fold_left (fun n c -> if c = '/' then n + 1 else n) 0 path in
      let leaf =
        match String.rindex_opt path '/' with
        | None -> path
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      in
      Printf.printf "  %-28s %8.3f s  %5.1f%%\n"
        (String.make (2 * depth) ' ' ^ leaf)
        secs (pct secs total))
    (Timing.entries timing);
  Printf.printf "  %-28s %8.3f s   (~%.3f s instrumentation overhead)\n" "total"
    total (Timing.overhead timing)

(* ---------------- Table I ---------------- *)

let table1 () =
  header "Table I: compile-time breakdown of the GCC back-end (TPC-DS-like, x86-64)";
  (* warm-up pass so allocator and code caches do not skew the comparison *)
  ignore
    (Experiments.measure ~execute:false ~timing_enabled:false Target.x64
       Experiments.Tpcds ~sf:sf_compile Engine.gcc);
  let r0 =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.gcc
  in
  let r1 =
    Experiments.measure ~execute:false ~timing_enabled:true Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.gcc
  in
  Printf.printf "functions compiled: %d (%d queries)\n" r1.Experiments.wr_functions
    (List.length r1.Experiments.wr_queries);
  print_breakdown r1.Experiments.wr_timing;
  Printf.printf "plain compile time (-ftime): %.3f s\n" r0.Experiments.wr_compile_s;
  Printf.printf "instrumented (-ftime-report): %.3f s (overhead %.1f%%)\n"
    r1.Experiments.wr_compile_s
    (pct (r1.Experiments.wr_compile_s -. r0.Experiments.wr_compile_s)
       r0.Experiments.wr_compile_s)

(* ---------------- Fig. 2 ---------------- *)

let llvm_breakdown target name backend =
  let r =
    Experiments.measure ~execute:false ~timing_enabled:true target
      Experiments.Tpcds ~sf:sf_compile backend
  in
  Printf.printf "%s (%d functions):\n" name r.Experiments.wr_functions;
  print_breakdown r.Experiments.wr_timing;
  List.iter
    (fun (k, v) -> if v > 0 then Printf.printf "    stat %-28s %d\n" k v)
    r.Experiments.wr_stats;
  r

(* LLVM with a non-default pipeline configuration, under the name of the
   instance it varies *)
let llvm_cheap_with cfg = Orc.backend ~name:"llvm-cheap" cfg
let llvm_opt_with cfg = Orc.backend ~name:"llvm-opt" cfg

let fig2 () =
  header "Fig. 2: compile-time breakdown of LLVM on x86-64 (cheap vs optimized)";
  ignore (llvm_breakdown Target.x64 "LLVM-cheap (-O0, FastISel)" Engine.llvm_cheap);
  print_newline ();
  ignore (llvm_breakdown Target.x64 "LLVM-opt (-O2, SelectionDAG)" Engine.llvm_opt)

(* ---------------- Fig. 3 ---------------- *)

let fig3 () =
  header "Fig. 3: LLVM instruction selectors on AArch64 (cheap and optimized)";
  let with_cheap name cfg =
    let r = llvm_breakdown Target.a64 name (llvm_cheap_with cfg) in
    print_newline ();
    r
  in
  let with_opt name cfg =
    let r = llvm_breakdown Target.a64 name (llvm_opt_with cfg) in
    print_newline ();
    r
  in
  let fast = with_cheap "FastISel (cheap)" Orc.cheap_config in
  let gisel_cheap =
    with_cheap "GlobalISel (cheap)" { Orc.cheap_config with Orc.isel = Orc.Isel_gisel }
  in
  let dag_opt = with_opt "SelectionDAG (optimized)" Orc.opt_config in
  let gisel_opt =
    with_opt "GlobalISel (optimized)" { Orc.opt_config with Orc.isel = Orc.Isel_gisel }
  in
  let isel_time (r : Experiments.workload_result) =
    List.fold_left
      (fun acc (p, s) -> if p = "ISel" then acc +. s else acc)
      0.0
      (Timing.flat r.Experiments.wr_timing)
  in
  Printf.printf "ISel-phase ratios: GlobalISel/FastISel (cheap) = %.2fx; \
SelectionDAG/GlobalISel (opt) = %.2fx\n"
    (isel_time gisel_cheap /. isel_time fast)
    (isel_time dag_opt /. isel_time gisel_opt);
  Printf.printf
    "total compile: fastisel %.3fs gisel-cheap %.3fs dag-opt %.3fs gisel-opt %.3fs\n"
    fast.Experiments.wr_compile_s gisel_cheap.Experiments.wr_compile_s
    dag_opt.Experiments.wr_compile_s gisel_opt.Experiments.wr_compile_s

(* ---------------- Table II ---------------- *)

let table2 () =
  header
    "Table II: execution speedup of the custom CIR instructions (TPC-DS-like, x86-64)";
  let exec_with features =
    let r =
      Experiments.measure ~execute:true ~timing_enabled:false Target.x64
        Experiments.Tpcds ~sf:sf_exec (Qcomp_clif.Clif.backend features)
    in
    List.map
      (fun q -> (q.Experiments.qr_name, q.Experiments.qr_exec_cycles))
      r.Experiments.wr_queries
  in
  let base = exec_with Qcomp_clif.Frontend.no_features in
  let variants =
    [
      ("+crc32", { Qcomp_clif.Frontend.no_features with Qcomp_clif.Frontend.native_crc32 = true });
      ("+overflow", { Qcomp_clif.Frontend.no_features with Qcomp_clif.Frontend.native_overflow = true });
      ("+mul-full", { Qcomp_clif.Frontend.no_features with Qcomp_clif.Frontend.native_mulfull = true });
      ("all", Qcomp_clif.Frontend.all_features);
    ]
  in
  Printf.printf "%-12s %10s %10s\n" "variant" "avg spd" "max spd";
  List.iter
    (fun (name, features) ->
      let v = exec_with features in
      let speedups =
        List.map2 (fun (_, b) (_, x) -> float_of_int b /. float_of_int (max 1 x)) base v
      in
      let avg =
        exp
          (List.fold_left (fun a s -> a +. log s) 0.0 speedups
          /. float_of_int (List.length speedups))
      in
      let mx = List.fold_left max 0.0 speedups in
      Printf.printf "%-12s %9.3fx %9.3fx\n" name avg mx)
    variants

(* ---------------- Fig. 4 / Fig. 5 ---------------- *)

let fig4 () =
  header "Fig. 4: compile-time breakdown of Cranelift on x86-64";
  let r =
    Experiments.measure ~execute:false ~timing_enabled:true Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.cranelift
  in
  Printf.printf "functions compiled: %d\n" r.Experiments.wr_functions;
  print_breakdown r.Experiments.wr_timing;
  List.iter (fun (k, v) -> Printf.printf "  stat %-28s %d\n" k v) r.Experiments.wr_stats

let fig5 () =
  header "Fig. 5: compile-time breakdown of DirectEmit on x86-64";
  let r =
    Experiments.measure ~execute:false ~timing_enabled:true Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.directemit
  in
  Printf.printf "functions compiled: %d\n" r.Experiments.wr_functions;
  print_breakdown r.Experiments.wr_timing

(* ---------------- Table III / Fig. 6 ---------------- *)

let backends_for target =
  [ ("Interpreter", Engine.interpreter) ]
  @ (if target.Target.arch = Target.X64 then [ ("DirectEmit", Engine.directemit) ]
     else [])
  @ [
      ("Cranelift", Engine.cranelift);
      ("LLVM-cheap", Engine.llvm_cheap);
      ("LLVM-opt", Engine.llvm_opt);
      ("GCC", Engine.gcc);
    ]

let table3_target target label =
  Printf.printf "\n%s (TPC-DS-like, sf=%d):\n" label sf_exec;
  Printf.printf "%-12s %12s %12s %10s\n" "back-end" "compile [s]" "exec [s]" "functions";
  List.map
    (fun (name, b) ->
      let r =
        Experiments.measure ~execute:true ~timing_enabled:false target
          Experiments.Tpcds ~sf:sf_exec b
      in
      Printf.printf "%-12s %12.3f %12.3f %10d\n" name r.Experiments.wr_compile_s
        (Experiments.cycles_to_seconds r.Experiments.wr_exec_cycles)
        r.Experiments.wr_functions;
      (name, r))
    (backends_for target)

let table3 () =
  header "Table III: compile-time and execution performance of all back-ends";
  ignore (table3_target Target.x64 "x86-64");
  ignore (table3_target Target.a64 "AArch64")

let fig6 () =
  header "Fig. 6: per-query compile and execution times (TPC-DS-like, x86-64; CSV)";
  let results = table3_target Target.x64 "x86-64" in
  print_newline ();
  print_string "query";
  List.iter (fun (name, _) -> Printf.printf ",%s_comp,%s_exec" name name) results;
  print_newline ();
  let queries =
    match results with
    | (_, r) :: _ -> List.map (fun q -> q.Experiments.qr_name) r.Experiments.wr_queries
    | [] -> []
  in
  List.iteri
    (fun i qname ->
      print_string qname;
      List.iter
        (fun (_, r) ->
          let q = List.nth r.Experiments.wr_queries i in
          Printf.printf ",%.6f,%.6f" q.Experiments.qr_compile_s
            (Experiments.cycles_to_seconds q.Experiments.qr_exec_cycles))
        results;
      print_newline ())
    queries

(* ---------------- Fig. 7 ---------------- *)

let fig7_at sf label =
  Printf.printf "\n%s (TPC-H-like, sf=%d): best back-end by compile+execute\n" label sf;
  let results =
    List.map
      (fun (name, b) ->
        let r =
          Experiments.measure ~execute:true ~timing_enabled:false Target.x64
            Experiments.Tpch ~sf b
        in
        (name, r))
      (List.filter (fun (n, _) -> n <> "Interpreter") (backends_for Target.x64))
  in
  let queries =
    match results with
    | (_, r) :: _ -> List.map (fun q -> q.Experiments.qr_name) r.Experiments.wr_queries
    | [] -> []
  in
  let wins = Hashtbl.create 8 in
  List.iteri
    (fun i qname ->
      let best =
        List.fold_left
          (fun acc (name, r) ->
            let q = List.nth r.Experiments.wr_queries i in
            let total =
              q.Experiments.qr_compile_s
              +. Experiments.cycles_to_seconds q.Experiments.qr_exec_cycles
            in
            match acc with
            | Some (_, t) when t <= total -> acc
            | _ -> Some (name, total))
          None results
      in
      match best with
      | Some (name, total) ->
          Hashtbl.replace wins name
            (1 + Option.value ~default:0 (Hashtbl.find_opt wins name));
          Printf.printf "  %-5s -> %-12s (%.6f s)\n" qname name total
      | None -> ())
    queries;
  print_string "wins:";
  Hashtbl.iter (fun k v -> Printf.printf " %s=%d" k v) wins;
  print_newline ()

let fig7 () =
  header "Fig. 7: back-end selection minimizing compile+execution time";
  fig7_at sf_tpch_small "small data (paper: SF10)";
  fig7_at sf_tpch_big "large data (paper: SF100)"

(* ---------------- ablations ---------------- *)

let total_fallbacks stats =
  List.fold_left
    (fun a (k, v) ->
      if String.length k > 9 && String.sub k 0 9 = "fallback_" then a + v else a)
    0 stats

(* one unmeasured pass so allocator warm-up does not skew A/B comparisons *)
let warmup_cheap () =
  ignore
    (Experiments.measure ~execute:false ~timing_enabled:false Target.x64
       Experiments.Tpcds ~sf:sf_compile Engine.llvm_cheap)

let compile_cheap_with name cfg =
  let r =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile (llvm_cheap_with cfg)
  in
  Printf.printf "%-34s compile %8.3f s  fallbacks %6d\n" name
    r.Experiments.wr_compile_s
    (total_fallbacks r.Experiments.wr_stats);
  r

let ablation_struct () =
  header "Ablation A (Sec. V-A2): {i64,i64} struct pairs vs split values";
  warmup_cheap ();
  ignore (compile_cheap_with "split values (default)" Orc.cheap_config);
  ignore
    (compile_cheap_with "pairs as struct"
       { Orc.cheap_config with Orc.pairs_as_struct = true });
  let r1 =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile
      (llvm_opt_with { Orc.opt_config with Orc.pairs_as_struct = true })
  in
  let r0 =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.llvm_opt
  in
  Printf.printf "optimized mode: split %.3fs, struct %.3fs (%.1f%% slower)\n"
    r0.Experiments.wr_compile_s r1.Experiments.wr_compile_s
    (pct (r1.Experiments.wr_compile_s -. r0.Experiments.wr_compile_s)
       r0.Experiments.wr_compile_s)

let ablation_codemodel () =
  header "Ablation B (Sec. V-A2): Small-PIC vs Large code model";
  warmup_cheap ();
  ignore (compile_cheap_with "Small-PIC (default)" Orc.cheap_config);
  ignore
    (compile_cheap_with "Large code model"
       { Orc.cheap_config with Orc.code_model_large = true });
  let exec cfg =
    let r =
      Experiments.measure ~execute:true ~timing_enabled:false Target.x64
        Experiments.Tpcds ~sf:sf_exec (llvm_cheap_with cfg)
    in
    r.Experiments.wr_exec_cycles
  in
  let small = exec Orc.cheap_config in
  let large = exec { Orc.cheap_config with Orc.code_model_large = true } in
  Printf.printf "execution cycles: small-pic %d, large %d (%.2f%% difference)\n" small
    large
    (100.0 *. (float_of_int large -. float_of_int small) /. float_of_int small)

let ablation_tm () =
  header "Ablation C (Sec. V-A2): TargetMachine caching";
  warmup_cheap ();
  ignore (compile_cheap_with "cached (default)" Orc.cheap_config);
  ignore
    (compile_cheap_with "constructed per compilation"
       { Orc.cheap_config with Orc.cache_target_machine = false })

let fallbacks () =
  header "Ablation D (Sec. V-B3b): FastISel fallback statistics (TPC-DS-like, x86-64)";
  let show (r : Experiments.workload_result) =
    List.iter
      (fun (k, v) ->
        if String.length k > 9 && String.sub k 0 9 = "fallback_" then
          Printf.printf "  %-28s %6d\n" k v)
      r.Experiments.wr_stats
  in
  let r =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile Engine.llvm_cheap
  in
  Printf.printf "with FastISel CRC32 support (default):\n";
  show r;
  let r2 =
    Experiments.measure ~execute:false ~timing_enabled:false Target.x64
      Experiments.Tpcds ~sf:sf_compile
      (llvm_cheap_with { Orc.cheap_config with Orc.fastisel_crc32 = false })
  in
  Printf.printf "without FastISel CRC32 support (pre-upstream):\n";
  show r2

(* ---------------- serving (lib/server) ---------------- *)

(* Replay a repeated-query stream through every serving policy: each static
   back-end (the paper's Table III tradeoff as a serving discipline), the
   fingerprint-keyed code cache, and tiered interpret->JIT execution with
   background compilation. Every duration in the virtual timeline is
   deterministic, so this experiment's numbers are byte-identical across
   runs with the same seed. *)
let serve () =
  header "Serving: static back-ends vs compiled-code cache vs tiered execution";
  let open Qcomp_server in
  let n = 60 in
  let queries =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Experiments.queries_of Experiments.Tpch)
  in
  let stream = Server.make_stream ~seed:42L ~n queries in
  Printf.printf "TPC-H-like, sf=%d, %d-query stream (%d distinct plans), 4 workers\n\n"
    sf_tpch_small n
    (List.length (List.sort_uniq compare (List.map fst stream)));
  let run mode =
    let db =
      Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small
    in
    let r = Server.run db { Server.default_config with Server.mode } stream in
    Format.printf "%a@." (Server.pp_report ~per_query:false) r;
    r
  in
  let statics =
    List.map
      (fun (_, b) -> run (Server.Static b))
      (backends_for Target.x64)
  in
  let _cached = run Server.Cached in
  let tiered = run Server.Tiered in
  let best_static =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some (b : Server.report) when b.Report.r_total_latency <= r.Report.r_total_latency -> acc
        | _ -> Some r)
      None statics
  in
  match best_static with
  | Some b ->
      let hit_rate =
        let s = tiered.Report.r_cache in
        if s.Lru.hits + s.Lru.misses > 0 then
          100.0 *. float_of_int s.Lru.hits /. float_of_int (s.Lru.hits + s.Lru.misses)
        else 0.0
      in
      let beats_static = tiered.Report.r_total_latency <= b.Report.r_total_latency in
      let hits = tiered.Report.r_cache.Lru.hits > 0 in
      Printf.printf
        "summary: tiered total latency %.6fs vs best static (%s) %.6fs -> %s; cache hit rate %.1f%% -> %s\n"
        tiered.Report.r_total_latency b.Report.r_mode b.Report.r_total_latency
        (gate beats_static) hit_rate (gate hits);
      if not (beats_static && hits) then exit 1
  | None -> ()

(* Static-estimate Tiered vs the observation-driven tier controller
   (--reopt) on the same stream. At sf=1 several TPC-H-like queries scan so
   few rows that the pre-execution estimate picks the interpreter and never
   tiers up — but their join pipelines make the observed cycles-per-row
   high, so the controller upgrades them mid-flight (and caches the strong
   module for every later stream occurrence). The comparison metric is
   total machine seconds (compile charged + execution cycles), which is
   schedule-independent; rows/checksums must be bit-identical. *)
let serve_reopt () =
  header "Serving: static-estimate Tiered vs observation-driven reopt";
  let open Qcomp_server in
  let n = 60 in
  (* sf=1 keeps the fan-out query below adaptive_backend's interpreter
     threshold — the under-prediction the controller exists to correct *)
  let sf = 1 in
  let queries =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Qcomp_workloads.Tpch.deceptive :: Experiments.queries_of Experiments.Tpch)
  in
  let stream = Server.make_stream ~seed:42L ~n queries in
  Printf.printf
    "TPC-H-like + fan-out query, sf=%d, %d-query stream (%d distinct plans)\n\n"
    sf n
    (List.length (List.sort_uniq compare (List.map fst stream)));
  let run reopt =
    let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf in
    let cfg =
      {
        Server.default_config with
        Server.mode = Server.Tiered;
        reopt;
        (* morsels small enough that a fan-out probe pipeline spans several
           quanta — a whole-pipeline morsel would leave the controller no
           boundary to act on *)
        morsel = 64;
      }
    in
    let r = Server.run db cfg stream in
    Format.printf "%a@." (Server.pp_report ~per_query:false) r;
    (db, r)
  in
  let _, static_r = run false in
  let rdb, reopt_r = run true in
  let total (r : Server.report) =
    List.fold_left
      (fun acc (q : Server.query_metrics) ->
        acc +. q.Report.qm_compile_s
        +. Engine.cycles_to_seconds q.Report.qm_exec_cycles)
      0.0 r.Report.r_queries
  in
  (* queries the controller carried past what the static estimate would
     have picked: the under-prediction cases the reopt mode exists for *)
  let past_static =
    List.sort_uniq compare
      (List.filter_map
         (fun (q : Server.query_metrics) ->
           let plan = List.assoc q.Report.qm_name queries in
           let static_pick, _ = Engine.adaptive_backend rdb plan in
           let stronger = List.map fst (Engine.stronger_than rdb static_pick) in
           if
             List.length q.Report.qm_tiers > 1
             && List.mem q.Report.qm_backend stronger
           then Some (q.Report.qm_name, static_pick, q.Report.qm_backend)
           else None)
         reopt_r.Report.r_queries)
  in
  List.iter
    (fun (nm, static_pick, final) ->
      Printf.printf
        "  %-8s static estimate picked %s; observed cycles drove it to %s\n" nm
        static_pick final)
    past_static;
  let multiset (r : Server.report) =
    List.sort compare
      (List.map
         (fun (q : Server.query_metrics) ->
           (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
         r.Report.r_queries)
  in
  if multiset static_r <> multiset reopt_r then begin
    Printf.printf "VIOLATION: reopt rows/checksums differ from static Tiered\n";
    exit 1
  end;
  let st, rt = (total static_r, total reopt_r) in
  Printf.printf
    "summary: total compile+execute %.6fs (reopt) vs %.6fs (static estimate) \
     -> %s; %d queries upgraded past their static pick -> %s; results \
     identical -> OK\n"
    rt st (gate (rt <= st)) (List.length past_static) (gate (past_static <> []));
  if rt > st || past_static = [] then exit 1

(* Warm-start serving from a persistent code-cache snapshot: the same
   Cached-mode stream served twice on fresh databases, first cold (every
   distinct plan pays its back-end compile in the foreground, then the
   cache is saved), then warm (the snapshot is loaded and each hit
   re-links the relocatable artifact in microseconds). The headline
   number is the foreground compile seconds the snapshot eliminates. *)
let serve_persist () =
  header "Serving: cold start vs code-cache snapshot warm start";
  let open Qcomp_server in
  let n = 60 in
  let queries =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Experiments.queries_of Experiments.Tpch)
  in
  let stream = Server.make_stream ~seed:42L ~n queries in
  let config = { Server.default_config with Server.mode = Server.Cached } in
  let snap = Filename.temp_file "qcomp_snapshot" ".qcss" in
  let fg_compile (r : Server.report) =
    List.fold_left
      (fun a (q : Server.query_metrics) -> a +. q.Report.qm_compile_s)
      0.0 r.Report.r_queries
  in
  let hit_rate (r : Server.report) =
    let s = r.Report.r_cache in
    if s.Lru.hits + s.Lru.misses > 0 then
      100.0 *. float_of_int s.Lru.hits /. float_of_int (s.Lru.hits + s.Lru.misses)
    else 0.0
  in
  let multiset (r : Server.report) =
    List.sort compare
      (List.map
         (fun (q : Server.query_metrics) ->
           (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
         r.Report.r_queries)
  in
  let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small in
  let cache = Code_cache.create ~capacity:config.Server.cache_capacity in
  let cold = Server.run ~cache db config stream in
  Code_cache.save cache snap;
  Printf.printf "cold start (fresh cache):\n";
  Format.printf "%a@." (Server.pp_report ~per_query:false) cold;
  let db2 = Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small in
  let warm_cache =
    Code_cache.load ~capacity:config.Server.cache_capacity ~db:db2 snap
  in
  let warm = Server.run ~cache:warm_cache db2 config stream in
  Printf.printf "warm start (snapshot %d bytes):\n"
    (Unix.stat snap).Unix.st_size;
  Format.printf "%a@." (Server.pp_report ~per_query:false) warm;
  Sys.remove snap;
  if multiset cold <> multiset warm then begin
    Printf.printf "VIOLATION: warm rows/checksums differ from cold run\n";
    exit 1
  end;
  let cs, ws = (fg_compile cold, fg_compile warm) in
  (* a query's foreground compile includes the parameter binds it paid:
     the gate is on back-end compile alone. Both sums add the same bind
     charges in different orders, so they are compared in whole
     nanoseconds. *)
  let ns s = Float.to_int (Float.round (s *. 1e9)) in
  let warm_compile_ns = ns ws - ns warm.Report.r_bind_s in
  Printf.printf
    "summary: foreground compile %.6fs cold vs %.6fs warm (%.6fs saved; warm \
     binds %.6fs, warm compile without binds %d ns) -> %s; warm hit rate \
     %.1f%% (cold %.1f%%) -> %s; results identical -> OK\n"
    cs ws (cs -. ws) warm.Report.r_bind_s warm_compile_ns
    (gate (warm_compile_ns = 0 && cs > 0.0))
    (hit_rate warm) (hit_rate cold)
    (gate (hit_rate warm >= 99.9));
  if warm_compile_ns <> 0 || cs <= 0.0 || hit_rate warm < 99.9 then exit 1

(* Parameterized-plan specialization on the Zipf-literal workload: the
   same stream served twice in Cached mode on fresh databases — first
   with paramization off (the pre-refactor behavior: the cache keys on
   the whole plan, so every fresh literal is a miss and a full back-end
   compile), then with paramization on (the cache keys on the shape, so
   after each shape's single compile every fresh literal re-links the
   artifact with a new vector in microseconds). The headline is the
   foreground compile time the shape key eliminates; the gates are the
   >=5x compile-time reduction, zero recompiles after the first compile
   of each shape, and byte-identical results. Recorded as
   BENCH_param.json. *)
let serve_param () =
  header
    "Serving: shape-keyed parameterized cache vs per-query baseline (Zipf \
     literals)";
  let open Qcomp_server in
  let n = 120 in
  let stream =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Qcomp_workloads.Paramgen.stream ~seed:42L ~n)
  in
  let distinct = List.length (List.sort_uniq compare (List.map fst stream)) in
  let run ~paramize =
    let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf:4 in
    let config =
      {
        Server.default_config with
        Server.mode = Server.Cached;
        Server.paramize;
      }
    in
    Server.run db config stream
  in
  let fg_compile (r : Server.report) =
    List.fold_left
      (fun a (q : Server.query_metrics) -> a +. q.Report.qm_compile_s)
      0.0 r.Report.r_queries
  in
  let hit_rate (r : Server.report) =
    let s = r.Report.r_cache in
    if s.Lru.hits + s.Lru.misses > 0 then
      100.0 *. float_of_int s.Lru.hits
      /. float_of_int (s.Lru.hits + s.Lru.misses)
    else 0.0
  in
  let multiset (r : Server.report) =
    List.sort compare
      (List.map
         (fun (q : Server.query_metrics) ->
           (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
         r.Report.r_queries)
  in
  let base = run ~paramize:false in
  let param = run ~paramize:true in
  Printf.printf "per-query-keyed baseline (paramize off):\n";
  Format.printf "%a@." (Server.pp_report ~per_query:false) base;
  Printf.printf "shape-keyed (paramize on):\n";
  Format.printf "%a@." (Server.pp_report ~per_query:false) param;
  let bs, ps = (fg_compile base, fg_compile param) in
  let reduction = if ps > 0.0 then bs /. ps else infinity in
  let identical = multiset base = multiset param in
  let shapes = Qcomp_workloads.Paramgen.shape_count in
  (* in Cached mode every miss is a foreground back-end compile; with the
     shape key there must be at most one per shape *)
  let no_recompiles = param.Report.r_cache.Lru.misses <= shapes in
  Printf.printf
    "summary: %d queries (%d distinct plans, %d shapes)\n\
    \  foreground compile %.6fs per-query-keyed vs %.6fs shape-keyed \
     (%.1fx reduction) -> %s\n\
    \  shape-keyed compiles %d (<= %d shapes) -> %s; shape-hits %d  \
     exact-hits %d  binds %d\n\
    \  results identical -> %s\n"
    n distinct shapes bs ps reduction
    (if reduction >= 5.0 then "OK" else "VIOLATION")
    param.Report.r_cache.Lru.misses shapes
    (if no_recompiles then "OK" else "VIOLATION")
    param.Report.r_shape_hits param.Report.r_exact_hits param.Report.r_binds
    (if identical then "OK" else "VIOLATION");
  let oc = open_out "BENCH_param.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"queries\": %d,\n" n;
  Printf.fprintf oc "  \"distinct_plans\": %d,\n" distinct;
  Printf.fprintf oc "  \"shapes\": %d,\n" shapes;
  Printf.fprintf oc "  \"compile_s_per_query_keyed\": %.6f,\n" bs;
  Printf.fprintf oc "  \"compile_s_shape_keyed\": %.6f,\n" ps;
  Printf.fprintf oc "  \"compile_reduction_x\": %.2f,\n" reduction;
  Printf.fprintf oc "  \"hit_rate_per_query_keyed\": %.1f,\n" (hit_rate base);
  Printf.fprintf oc "  \"hit_rate_shape_keyed\": %.1f,\n" (hit_rate param);
  Printf.fprintf oc "  \"shape_keyed_compiles\": %d,\n"
    param.Report.r_cache.Lru.misses;
  Printf.fprintf oc "  \"shape_hits\": %d,\n" param.Report.r_shape_hits;
  Printf.fprintf oc "  \"exact_hits\": %d,\n" param.Report.r_exact_hits;
  Printf.fprintf oc "  \"binds\": %d,\n" param.Report.r_binds;
  Printf.fprintf oc "  \"bind_s\": %.6f,\n" param.Report.r_bind_s;
  Printf.fprintf oc "  \"results_identical\": %b\n}\n" identical;
  close_out oc;
  Printf.printf "wrote BENCH_param.json\n";
  if reduction < 5.0 || (not identical) || not no_recompiles then exit 1

(* Throughput scaling of the real Domain-based worker pool: the same
   tiered stream served on 1, 2 and 4 OS-thread domains. Unlike every
   other experiment here the timings are wall-clock, so only the scaling
   trend is meaningful — but rows/checksums are asserted identical across
   domain counts (the pool is exact, only the schedule varies). *)
let serve_scaling () =
  header "Serving: Domain-pool throughput scaling (1/2/4 domains, wall-clock)";
  let open Qcomp_server in
  let n = 60 in
  let queries =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Experiments.queries_of Experiments.Tpcds)
  in
  let stream = Server.make_stream ~seed:42L ~n queries in
  let cfg = { Server.default_config with Server.mode = Server.Tiered } in
  Printf.printf "TPC-DS-like, sf=%d, %d-query tiered stream\n" sf_tpch_small n;
  Printf.printf
    "host parallelism: %d (speedup is only observable above 1; on a \
     single-core host extra domains measure pure overhead)\n\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-10s %12s %14s\n" "domains" "makespan [s]" "queries/s";
  let multiset r =
    List.sort compare
      (List.map
         (fun (q : Server.query_metrics) ->
           (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
         r.Report.r_queries)
  in
  let baseline = ref None in
  List.iter
    (fun domains ->
      let db =
        Experiments.make_db Target.x64 Experiments.Tpcds ~sf:sf_tpch_small
      in
      let r =
        Server.run ~parallel:true db { cfg with Server.workers = domains } stream
      in
      Printf.printf "%-10d %12.3f %14.1f\n" domains r.Report.r_makespan
        r.Report.r_throughput;
      match !baseline with
      | None -> baseline := Some (multiset r)
      | Some b ->
          if b <> multiset r then begin
            Printf.printf
              "VIOLATION: %d-domain results differ from 1-domain run\n" domains;
            exit 1
          end)
    [ 1; 2; 4 ];
  print_endline "results identical across domain counts -> OK"

(* ---------------- copy-and-patch stencil rung ---------------- *)

(* The stencil back-end's pitch is per-query code generation that is an
   order of magnitude under DirectEmit's encode loop, at execution speed
   between the interpreter and DirectEmit. This experiment measures
   exactly that on the TPC-H-like workload and records the result as
   BENCH_stencil.json, next to the baseline below:

   - artifact generation time per back-end (the back-end's own work —
     blit + patch for stencil, ISel + encode for the others), best of
     [reps] sweeps over all queries, the contenders' sweeps taken in
     turn so that load on the host hits all of them alike, each from a
     freshly collected heap;
   - end-to-end executed cycles and cycles per produced row;
   - checksum parity with the interpreter on every query;
   - the tier ladder's first native rung and cost-model coverage of
     every rung, which is what the tiered/--reopt drivers act on.

   Gates: stencil generation >= 10x faster than DirectEmit, stencil
   cycles per row <= [stencil_cpr_gate], identical checksums, stencil
   first on the ladder and faster than the interpreter. *)

let stencil_cpr_gate = 62_000.0

(* The always-spill stencil emitter (every value stored to its slot and
   reloaded by each consumer) that register forwarding replaced, measured
   with this same experiment: cycles are deterministic; generation times
   are the run with the median ratio out of ten, on a shared 2-core
   x86-64 host, dune dev profile. *)
let stencil_baseline =
  [
    ("artifact_generation_s",
      [ ("stencil", "0.000545"); ("directemit", "0.006286"); ("cranelift", "0.023482") ]);
    ("exec_cycles",
      [ ("interpreter", "45731637"); ("stencil", "24498844"); ("directemit", "14530619");
        ("cranelift", "14108206") ]);
    ("cycles_per_row",
      [ ("interpreter", "156080.7"); ("stencil", "83613.8"); ("directemit", "49592.6");
        ("cranelift", "48150.9") ]);
  ]

let stencil_baseline_ratio = 11.53

let bench_stencil () =
  header "Stencil: copy-and-patch vs DirectEmit/Cranelift (TPC-H-like, x86-64)";
  let module Spec = Qcomp_workloads.Spec in
  let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small in
  let modules =
    List.map
      (fun (q : Spec.query) ->
        let cq = Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan in
        (q.Spec.q_name, cq.Qcomp_codegen.Codegen.modul))
      (Experiments.queries_of Experiments.Tpch)
  in
  let contenders =
    [ ("stencil", Engine.stencil); ("directemit", Engine.directemit);
      ("cranelift", Engine.cranelift) ]
  in
  (* artifact generation only: plan lowering and linking are shared
     pipeline stages every back-end pays identically *)
  (* the stencil sweep is a fraction of a millisecond: enough turns that
     the best one of each contender lands in a quiet stretch of a shared
     host *)
  let reps = 20 in
  let sweeps =
    List.map
      (fun (name, b) ->
        let gen =
          match Qcomp_backend.Backend.compile_artifact b with
          | Some f -> f
          | None -> failwith (name ^ " has no artifact path")
        in
        let timing = Timing.create ~enabled:false () in
        let sweep () =
          let t0 = Timing.now () in
          List.iter
            (fun (_, m) ->
              ignore (gen ~timing ~target:Target.x64 ~registry:db.Engine.registry m))
            modules;
          Timing.now () -. t0
        in
        (name, sweep, ref infinity))
      contenders
  in
  (* warm-up, then the contenders' sweeps in turn. Every sweep starts on
     a settled heap: otherwise the major-GC work that one contender's
     garbage leaves due is paid inside the next contender's sweep (the
     Cranelift sweep's left the stencil sweep after it about a quarter
     slower) *)
  let timed sweep =
    Gc.full_major ();
    sweep ()
  in
  List.iter (fun (_, sweep, _) -> ignore (timed sweep)) sweeps;
  for _ = 1 to reps do
    List.iter (fun (_, sweep, best) -> best := Float.min !best (timed sweep)) sweeps
  done;
  let artifact_s = List.map (fun (name, _, best) -> (name, !best)) sweeps in
  let gen_of n = List.assoc n artifact_s in
  let ratio = gen_of "directemit" /. gen_of "stencil" in
  (* end-to-end runs: compile+execute, checksums against the interpreter *)
  let runs =
    List.map
      (fun (name, b) ->
        ( name,
          Experiments.measure ~execute:true ~timing_enabled:false Target.x64
            Experiments.Tpch ~sf:sf_tpch_small b ))
      (("interpreter", Engine.interpreter) :: contenders)
  in
  let interp = List.assoc "interpreter" runs in
  let mismatches =
    List.concat_map
      (fun (name, (r : Experiments.workload_result)) ->
        List.filter_map
          (fun (q : Experiments.query_result) ->
            let reference =
              List.find
                (fun (iq : Experiments.query_result) ->
                  iq.Experiments.qr_name = q.Experiments.qr_name)
                interp.Experiments.wr_queries
            in
            if Int64.equal reference.Experiments.qr_checksum q.Experiments.qr_checksum
            then None
            else Some (name ^ "/" ^ q.Experiments.qr_name))
          r.Experiments.wr_queries)
      (List.remove_assoc "interpreter" runs)
  in
  let rows_of (r : Experiments.workload_result) =
    List.fold_left (fun a q -> a + q.Experiments.qr_rows) 0 r.Experiments.wr_queries
  in
  let cpr (r : Experiments.workload_result) =
    float_of_int r.Experiments.wr_exec_cycles /. float_of_int (max 1 (rows_of r))
  in
  (* what the serving drivers will do with the new rung *)
  let ladder = List.map fst (Engine.tier_ladder db) in
  let first_native = match ladder with _ :: n :: _ -> n | _ -> "" in
  let priced =
    List.for_all
      (fun name ->
        match
          let m = snd (List.hd modules) in
          ( Qcomp_server.Costmodel.compile_seconds ~backend:name m,
            Qcomp_server.Costmodel.exec_rate name )
        with
        | _ -> true
        | exception Invalid_argument _ -> false)
      ladder
  in
  Printf.printf "%-12s %16s %12s %14s\n" "back-end" "artifact gen [s]"
    "exec [s]" "cycles/row";
  List.iter
    (fun (name, r) ->
      Printf.printf "%-12s %16.6f %12.3f %14.1f\n" name
        (try gen_of name with Not_found -> 0.0)
        (Experiments.cycles_to_seconds r.Experiments.wr_exec_cycles)
        (cpr r))
    runs;
  Printf.printf
    "\nstencil artifact generation: %.1fx faster than directemit -> %s\n" ratio
    (if ratio >= 10.0 then "OK" else "VIOLATION");
  let stencil_cpr = cpr (List.assoc "stencil" runs) in
  Printf.printf "stencil cycles/row: %.1f (gate %.0f) -> %s\n" stencil_cpr
    stencil_cpr_gate
    (if stencil_cpr <= stencil_cpr_gate then "OK" else "VIOLATION");
  Printf.printf "checksums vs interpreter: %s\n"
    (if mismatches = [] then "all match -> OK"
     else "MISMATCH " ^ String.concat " " mismatches);
  Printf.printf "tier ladder: %s (first native rung %s -> %s)\n"
    (String.concat " -> " ladder) first_native
    (if first_native = "stencil" then "OK" else "VIOLATION");
  Printf.printf "cost model prices every rung -> %s\n"
    (if priced then "OK" else "VIOLATION");
  let exec_interp = float_of_int interp.Experiments.wr_exec_cycles in
  let exec_stencil =
    float_of_int (List.assoc "stencil" runs).Experiments.wr_exec_cycles
  in
  Printf.printf "stencil executes %.2fx faster than the interpreter -> %s\n"
    (exec_interp /. exec_stencil)
    (if exec_stencil < exec_interp then "OK" else "VIOLATION");
  let oc = open_out "BENCH_stencil.json" in
  let obj indent fields =
    String.concat ",\n"
      (List.map (fun (n, v) -> Printf.sprintf "%s%S: %s" indent n v) fields)
  in
  Printf.fprintf oc "{\n  \"workload\": \"tpch\",\n  \"sf\": %d,\n" sf_tpch_small;
  Printf.fprintf oc "  \"queries\": %d,\n" (List.length modules);
  Printf.fprintf oc "  \"artifact_generation_s\": {\n%s\n  },\n"
    (obj "    " (List.map (fun (n, s) -> (n, Printf.sprintf "%.6f" s)) artifact_s));
  Printf.fprintf oc "  \"exec_cycles\": {\n%s\n  },\n"
    (obj "    "
       (List.map
          (fun (n, (r : Experiments.workload_result)) ->
            (n, string_of_int r.Experiments.wr_exec_cycles))
          runs));
  Printf.fprintf oc "  \"cycles_per_row\": {\n%s\n  },\n"
    (obj "    " (List.map (fun (n, r) -> (n, Printf.sprintf "%.1f" (cpr r))) runs));
  Printf.fprintf oc "  \"stencil_vs_directemit_compile\": %.2f,\n" ratio;
  Printf.fprintf oc "  \"stencil_cycles_per_row_gate\": %.0f,\n" stencil_cpr_gate;
  Printf.fprintf oc "  \"checksums_match_interpreter\": %b,\n" (mismatches = []);
  Printf.fprintf oc "  \"first_native_tier\": %S,\n" first_native;
  Printf.fprintf oc "  \"ladder_fully_priced\": %b,\n" priced;
  Printf.fprintf oc "  \"baseline_always_spill\": {\n%s,\n    \"stencil_vs_directemit_compile\": %.2f\n  }\n}\n"
    (obj "    "
       (List.map
          (fun (n, fields) -> (n, "{\n" ^ obj "      " fields ^ "\n    }"))
          stencil_baseline))
    stencil_baseline_ratio;
  close_out oc;
  Printf.printf "wrote BENCH_stencil.json\n";
  if
    ratio < 10.0 || mismatches <> [] || first_native <> "stencil"
    || not priced
    || exec_stencil >= exec_interp
    || stencil_cpr > stencil_cpr_gate
  then exit 1

(* ---------------- Bechamel micro-suite ---------------- *)

(* One Test.make per table/figure: each benchmark runs the compile-time
   kernel behind the corresponding result on a 3-query sample. *)
let bechamel_suite () =
  header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let queries =
    List.filteri (fun i _ -> i < 3) (Experiments.queries_of Experiments.Tpcds)
  in
  (* one database per target, built outside the measured closure so the
     benchmark isolates compilation *)
  let db_x64 =
    Experiments.make_db ~mem_size:(64 * 1024 * 1024) Target.x64 Experiments.Tpcds ~sf:1
  in
  let db_a64 =
    Experiments.make_db ~mem_size:(64 * 1024 * 1024) Target.a64 Experiments.Tpcds ~sf:1
  in
  let kernel target backend () =
    let db = if target.Target.arch = Target.X64 then db_x64 else db_a64 in
    ignore
      (Experiments.run_workload ~execute:false ~timing_enabled:false db backend queries)
  in
  let tests =
    [
      Test.make ~name:"table1_gcc" (Staged.stage (kernel Target.x64 Engine.gcc));
      Test.make ~name:"fig2_llvm_cheap" (Staged.stage (kernel Target.x64 Engine.llvm_cheap));
      Test.make ~name:"fig2_llvm_opt" (Staged.stage (kernel Target.x64 Engine.llvm_opt));
      Test.make ~name:"fig3_llvm_cheap_a64" (Staged.stage (kernel Target.a64 Engine.llvm_cheap));
      Test.make ~name:"table2_fig4_cranelift" (Staged.stage (kernel Target.x64 Engine.cranelift));
      Test.make ~name:"fig5_directemit" (Staged.stage (kernel Target.x64 Engine.directemit));
      Test.make ~name:"table3_fig6_interpreter" (Staged.stage (kernel Target.x64 Engine.interpreter));
      Test.make ~name:"fig7_tpch_llvm_opt" (Staged.stage (kernel Target.x64 Engine.llvm_opt));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:12 ~quota:(Time.second 1.5) () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"qcomp" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Printf.printf "  %-34s %14s\n" "benchmark" "time/run";
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some (e :: _) -> Printf.printf "  %-34s %11.3f ms\n" name (e /. 1e6)
      | _ -> Printf.printf "  %-34s %14s\n" name "n/a")
    results

(* Serving under load: the same open-loop traffic trace served three ways
   on the deterministic discrete-event driver — steady (Poisson arrivals,
   generous admission cap: nothing may shed), overload (bursty arrivals
   against a tiny cap: sheds are the designed behavior), and the overload
   trace uncapped (the differential baseline: every query the capped run
   admitted must produce the identical rows/checksum uncapped) — plus one
   over-provisioned wall-clock run on the Domain pool. Gates: steady sheds
   zero; overload sheds > 0 with queue-peak <= cap; p99 >= p95 >= p50 on
   every run; capped-vs-uncapped admitted results identical; the capped
   run repeated from the same seed is byte-identical, shed set included.
   Recorded as BENCH_load.json. *)
let serve_load () =
  header
    "Serving under load: open-loop traffic, admission control, tail latency";
  let open Qcomp_server in
  let n = 120 in
  let tenants = 3 in
  let queries =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      (Experiments.queries_of Experiments.Tpch)
  in
  let requests arrival =
    List.map
      (fun (name, plan, at, tenant) ->
        { Server.rq_name = name; rq_plan = plan; rq_arrival = at;
          rq_tenant = tenant })
      (Qcomp_workloads.Trafficgen.stream ~arrival ~seed:42L ~n ~tenants
         queries)
  in
  let steady_arrival = Qcomp_workloads.Trafficgen.Poisson { qps = 3000.0 } in
  let burst_arrival =
    Qcomp_workloads.Trafficgen.Burst
      { qps = 50_000.0; burst = 16; idle_s = 1e-4 }
  in
  let cap = 4 in
  let run ?(domains = 0) ~cap:admission_cap reqs =
    let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small in
    let cfg =
      {
        Server.default_config with
        Server.mode = Server.Tiered;
        Server.admission_cap;
        Server.tenants;
        Server.cache_shards = 2;
      }
    in
    if domains > 0 then
      Server.run_requests ~parallel:true db { cfg with Server.workers = domains } reqs
    else Server.run_requests db cfg reqs
  in
  let steady_reqs = requests steady_arrival in
  let burst_reqs = requests burst_arrival in
  let steady = run ~cap:(Some 256) steady_reqs in
  let overload = run ~cap:(Some cap) burst_reqs in
  let overload2 = run ~cap:(Some cap) burst_reqs in
  let uncapped = run ~cap:None burst_reqs in
  (* wall-clock flavor: over-provisioned pool must admit everything *)
  let pool = run ~domains:2 ~cap:(Some (n + 1)) steady_reqs in
  let show name (r : Server.report) =
    Printf.printf "%s:\n" name;
    Format.printf "%a@." (Server.pp_report ~per_query:false) r
  in
  show
    (Printf.sprintf "steady  %s, cap 256, %d tenants"
       (Qcomp_workloads.Trafficgen.arrival_name steady_arrival) tenants)
    steady;
  show
    (Printf.sprintf "overload  %s, cap %d"
       (Qcomp_workloads.Trafficgen.arrival_name burst_arrival) cap)
    overload;
  show "overload uncapped (differential baseline)" uncapped;
  show "steady on 2-domain pool (wall-clock), cap n+1" pool;
  let ordered (r : Server.report) =
    if r.Report.r_p99_latency >= r.Report.r_p95_latency
       && r.Report.r_p95_latency >= r.Report.r_p50_latency
       && r.Report.r_p99_first_row >= r.Report.r_p95_first_row
       && r.Report.r_p95_first_row >= r.Report.r_p50_first_row
    then true
    else false
  in
  let percentiles_ok =
    List.for_all ordered [ steady; overload; uncapped; pool ]
  in
  (* every query the capped run admitted must be bit-identical uncapped *)
  let by_name (r : Server.report) =
    List.sort compare
      (List.map
         (fun (q : Server.query_metrics) ->
           (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
         r.Report.r_queries)
  in
  let uncapped_set = by_name uncapped in
  let admitted_identical =
    List.for_all (fun k -> List.mem k uncapped_set) (by_name overload)
  in
  (* same seed, same cap -> byte-identical report, shed set included *)
  let repeat_identical =
    by_name overload = by_name overload2
    && overload.Report.r_sheds = overload2.Report.r_sheds
    && overload.Report.r_queue_peak = overload2.Report.r_queue_peak
    && overload.Report.r_makespan = overload2.Report.r_makespan
  in
  let sheds r = List.length r.Report.r_sheds in
  Printf.printf
    "summary: %d requests, %d tenants\n\
    \  steady sheds %d (= 0) -> %s; pool sheds %d (= 0) -> %s\n\
    \  overload sheds %d (> 0) -> %s; queue-peak %d (<= cap %d) -> %s\n\
    \  uncapped sheds %d (= 0) -> %s; admitted results identical uncapped \
     -> %s\n\
    \  p99 >= p95 >= p50 on all runs -> %s; same-seed repeat identical -> \
     %s\n"
    n tenants (sheds steady)
    (gate (sheds steady = 0))
    (sheds pool)
    (gate (sheds pool = 0))
    (sheds overload)
    (gate (sheds overload > 0))
    overload.Report.r_queue_peak cap
    (gate (overload.Report.r_queue_peak <= cap))
    (sheds uncapped)
    (gate (sheds uncapped = 0))
    (gate admitted_identical) (gate percentiles_ok) (gate repeat_identical);
  let scenario oc name (r : Server.report) =
    Printf.fprintf oc "  \"%s\": {\n" name;
    Printf.fprintf oc "    \"completed\": %d,\n"
      (List.length r.Report.r_queries);
    Printf.fprintf oc "    \"shed\": %d,\n" (sheds r);
    Printf.fprintf oc "    \"queue_peak\": %d,\n" r.Report.r_queue_peak;
    Printf.fprintf oc "    \"p50_s\": %.6f,\n" r.Report.r_p50_latency;
    Printf.fprintf oc "    \"p95_s\": %.6f,\n" r.Report.r_p95_latency;
    Printf.fprintf oc "    \"p99_s\": %.6f,\n" r.Report.r_p99_latency;
    Printf.fprintf oc "    \"max_s\": %.6f,\n" r.Report.r_max_latency;
    Printf.fprintf oc "    \"mean_s\": %.6f,\n" r.Report.r_mean_latency;
    Printf.fprintf oc "    \"p50_first_row_s\": %.6f,\n"
      r.Report.r_p50_first_row;
    Printf.fprintf oc "    \"p95_first_row_s\": %.6f,\n"
      r.Report.r_p95_first_row;
    Printf.fprintf oc "    \"p99_first_row_s\": %.6f,\n"
      r.Report.r_p99_first_row;
    Printf.fprintf oc "    \"compile_stall_s\": %.6f,\n"
      r.Report.r_compile_stall_s;
    Printf.fprintf oc "    \"hist_samples\": %d\n"
      (Hist.count r.Report.r_lat_hist);
    Printf.fprintf oc "  }"
  in
  let oc = open_out "BENCH_load.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"requests\": %d,\n" n;
  Printf.fprintf oc "  \"tenants\": %d,\n" tenants;
  Printf.fprintf oc "  \"cap\": %d,\n" cap;
  scenario oc "steady" steady;
  Printf.fprintf oc ",\n";
  scenario oc "overload" overload;
  Printf.fprintf oc ",\n";
  scenario oc "uncapped" uncapped;
  Printf.fprintf oc ",\n";
  scenario oc "pool_steady" pool;
  Printf.fprintf oc ",\n";
  Printf.fprintf oc "  \"admitted_identical\": %b,\n" admitted_identical;
  Printf.fprintf oc "  \"repeat_identical\": %b,\n" repeat_identical;
  Printf.fprintf oc "  \"percentiles_ordered\": %b\n}\n" percentiles_ok;
  close_out oc;
  Printf.printf "wrote BENCH_load.json\n";
  if
    sheds steady <> 0 || sheds pool <> 0 || sheds overload = 0
    || overload.Report.r_queue_peak > cap
    || sheds uncapped <> 0
    || (not admitted_identical)
    || (not percentiles_ok)
    || not repeat_identical
  then exit 1

(* Tagged-probe hash table: cycles per probe on three TPC-H joins —
   match-heavy (spread keys, every probe finds its order), miss-heavy
   (build keys offset into a disjoint key space, every probe misses a
   half-full table) and dense-key (raw serial orderkeys, served by the
   direct-address layout) — on the stencil tier, against
   [join_baseline]. Cycle counts come from the runtime's probe
   statistics, so they measure exactly the table, not the surrounding
   operators. Gates: >= 25% fewer cycles per probe on the miss-heavy
   join; the dense-key join actually served by direct addressing; every
   back-end's sorted result multiset equal to the interpreter's on every
   join. Recorded as BENCH_join.json. *)

(* The untagged open-addressing table the tagged and direct layouts
   replaced (4 cycles per probed slot, no tag filter), measured with this
   same experiment on the stencil tier: (join, probe cycles, probes).
   Cycles are deterministic. *)
let join_baseline =
  [
    ("match_heavy", 249_916, 32_000);
    ("miss_heavy", 203_708, 16_000);
    ("dense_key", 231_996, 32_000);
  ]

let bench_join () =
  header "Join probes: tagged filtering and direct addressing vs baseline";
  let module A = Qcomp_plan.Algebra in
  let module E = Qcomp_plan.Expr in
  let module Ht = Qcomp_runtime.Htable in
  let sf = 8 in
  let li = Qcomp_workloads.Tpch.li and od = Qcomp_workloads.Tpch.od in
  let orders_scan = A.Scan { table = "orders"; filter = None } in
  let lineitem_scan = A.Scan { table = "lineitem"; filter = None } in
  let spread c = E.(c *% int64 131_071L) in
  let joins =
    [
      ( "match_heavy",
        A.Hash_join
          {
            build = orders_scan;
            probe = lineitem_scan;
            build_keys = [ spread (E.col (od "o_orderkey")) ];
            probe_keys = [ spread (E.col (li "l_orderkey")) ];
          } );
      ( "miss_heavy",
        (* build keys offset into a disjoint key space: every probe
           misses, against a table holding all orders at ~50% load — the
           no-match path the tag filter exists for *)
        A.Hash_join
          {
            build = orders_scan;
            probe = lineitem_scan;
            build_keys = [ E.(spread (col (od "o_orderkey")) +% int64 7L) ];
            probe_keys = [ spread (E.col (li "l_orderkey")) ];
          } );
      ( "dense_key",
        A.Hash_join
          {
            build = orders_scan;
            probe = lineitem_scan;
            build_keys = [ E.col (od "o_orderkey") ];
            probe_keys = [ E.col (li "l_orderkey") ];
          } );
    ]
  in
  let other_backends =
    [ Engine.directemit; Engine.cranelift; Engine.llvm_opt; Engine.gcc ]
  in
  (* sorted-multiset checksum: Direct tables emit rows in insertion order
     rather than slot order, so back-ends agree on the multiset, not
     necessarily on row order *)
  let multiset_checksum rows = Engine.checksum (List.sort compare rows) in
  let measure backend name plan =
    let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf in
    let timing = Timing.create ~enabled:false () in
    let s0 = Ht.stats () in
    let r, _, cm = Engine.run_plan db ~backend ~timing ~name plan in
    let s1 = Ht.stats () in
    Engine.dispose_module db cm;
    ( (multiset_checksum r.Engine.rows, r.Engine.output_count),
      r.Engine.exec_cycles,
      s1.Ht.probes - s0.Ht.probes,
      s1.Ht.probe_cycles - s0.Ht.probe_cycles,
      s1.Ht.direct_probes - s0.Ht.direct_probes )
  in
  let results =
    List.map
      (fun (jname, plan) ->
        let _, bc, bp = List.find (fun (n, _, _) -> n = jname) join_baseline in
        (* cycle comparison on the stencil tier; identity on all tiers *)
        let out, ec, tp, tc, dp = measure Engine.stencil jname plan in
        let reference, _, _, _, _ = measure Engine.interpreter jname plan in
        let identical =
          out = reference
          && List.for_all
               (fun backend ->
                 let o, _, _, _, _ = measure backend jname plan in
                 o = reference)
               other_backends
        in
        let cpp_base = float_of_int bc /. float_of_int bp in
        let cpp_tagged = float_of_int tc /. float_of_int (max 1 tp) in
        Printf.printf
          "%-12s baseline %.2f cyc/probe (%d probes)  tagged %.2f cyc/probe \
           (%d probes, %d direct)  %+.1f%%  identical across back-ends: %b\n"
          jname cpp_base bp cpp_tagged tp dp
          (100.0 *. ((cpp_tagged /. cpp_base) -. 1.0))
          identical;
        (jname, cpp_base, cpp_tagged, bp, tp, dp, ec, identical))
      joins
  in
  let find name =
    List.find (fun (n, _, _, _, _, _, _, _) -> n = name) results
  in
  let _, miss_l, miss_t, _, _, _, _, _ = find "miss_heavy" in
  let _, _, _, _, dense_probes, dense_direct, _, _ = find "dense_key" in
  let improvement = 1.0 -. (miss_t /. miss_l) in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, ok) -> ok) results
  in
  let direct_served = dense_direct >= dense_probes / 2 in
  Printf.printf
    "summary: miss-heavy improvement %.1f%% (>= 25%%) -> %s\n\
    \  dense-key probes served direct: %d/%d -> %s\n\
    \  result multisets identical (all joins, all back-ends) -> %s\n"
    (100.0 *. improvement)
    (if improvement >= 0.25 then "OK" else "VIOLATION")
    dense_direct dense_probes
    (if direct_served then "OK" else "VIOLATION")
    (if all_identical then "OK" else "VIOLATION");
  let oc = open_out "BENCH_join.json" in
  Printf.fprintf oc "{\n  \"workload\": \"tpch\",\n  \"sf\": %d,\n" sf;
  Printf.fprintf oc "  \"joins\": {\n";
  List.iteri
    (fun i (jname, cl, ct, lp, tp, dp, ec, ok) ->
      Printf.fprintf oc
        "    \"%s\": {\n\
        \      \"legacy_cycles_per_probe\": %.3f,\n\
        \      \"tagged_cycles_per_probe\": %.3f,\n\
        \      \"legacy_probes\": %d,\n\
        \      \"tagged_probes\": %d,\n\
        \      \"direct_probes\": %d,\n\
        \      \"exec_cycles_tagged\": %d,\n\
        \      \"identical_across_backends\": %b\n    }%s\n"
        jname cl ct lp tp dp ec ok
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"miss_heavy_improvement\": %.4f,\n" improvement;
  Printf.fprintf oc "  \"all_identical\": %b\n}\n" all_identical;
  close_out oc;
  Printf.printf "wrote BENCH_join.json\n";
  if improvement < 0.25 || (not direct_served) || not all_identical then
    exit 1

(* Intra-query morsel-driven parallelism: simulated wall-clock cycles of
   heavy TPC-H queries at 1/2/4 lanes on one compiled module. Gate: the
   scan-dominated aggregate (q01) must clear a 1.5x wall-cycle speedup at
   4 lanes, and every lane count must reproduce the serial multiset.
   Recorded as BENCH_morsel.json. *)
let bench_morsel () =
  let open Qcomp_server in
  header "Morsel-driven intra-query parallelism: wall cycles vs lanes";
  let sf = 6 in
  let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf in
  let timing = Timing.create ~enabled:false () in
  let queries =
    List.filter
      (fun (q : Qcomp_workloads.Spec.query) ->
        List.mem q.Qcomp_workloads.Spec.q_name [ "q01"; "q03"; "q06"; "q18" ])
      (Experiments.queries_of Experiments.Tpch)
  in
  let lane_counts = [ 1; 2; 4 ] in
  let scheds =
    List.map
      (fun lanes ->
        ( lanes,
          if lanes > 1 then
            Some (Morsel_sched.create ~parallel:false db ~lanes)
          else None ))
      lane_counts
  in
  let multiset_checksum rows = Engine.checksum (List.sort compare rows) in
  let results =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        let name = q.Qcomp_workloads.Spec.q_name in
        Engine.with_compiled db ~backend:Engine.stencil ~timing ~name
          q.Qcomp_workloads.Spec.q_plan (fun cq cm _ ->
            let runs =
              List.map
                (fun (lanes, sched) ->
                  let ex = Exec.start ?sched db cq cm in
                  Exec.run_to_end ex ~morsel:512;
                  let r = Exec.result ex in
                  let wall = Exec.wall_cycles ex in
                  Exec.dispose ex;
                  (lanes, wall, multiset_checksum r.Engine.rows,
                   r.Engine.output_count))
                scheds
            in
            let _, w1, sum1, _ = List.hd runs in
            let identical =
              List.for_all (fun (_, _, s, _) -> Int64.equal s sum1) runs
            in
            let _, w4, _, _ = List.nth runs (List.length runs - 1) in
            let speedup = float_of_int w1 /. float_of_int (max 1 w4) in
            Printf.printf "%-4s  wall cycles" name;
            List.iter
              (fun (lanes, w, _, _) -> Printf.printf "  @%d: %9d" lanes w)
              runs;
            Printf.printf "  speedup@4: %.2fx  multisets %s\n" speedup
              (if identical then "identical" else "DIVERGED");
            (name, runs, speedup, identical)))
      queries
  in
  let heavy_speedup =
    match List.find_opt (fun (n, _, _, _) -> n = "q01") results with
    | Some (_, _, s, _) -> s
    | None -> 0.0
  in
  let all_identical = List.for_all (fun (_, _, _, ok) -> ok) results in
  line ();
  Printf.printf
    "heavy query (q01) wall-cycle speedup at 4 lanes: %.2fx (gate 1.50x) -> \
     %s\nresult multisets identical at every lane count -> %s\n"
    heavy_speedup
    (if heavy_speedup >= 1.5 then "OK" else "VIOLATION")
    (if all_identical then "OK" else "VIOLATION");
  let oc = open_out "BENCH_morsel.json" in
  Printf.fprintf oc "{\n  \"workload\": \"tpch\",\n  \"sf\": %d,\n" sf;
  Printf.fprintf oc "  \"backend\": \"stencil\",\n  \"queries\": {\n";
  List.iteri
    (fun i (name, runs, speedup, identical) ->
      Printf.fprintf oc "    \"%s\": {\n      \"wall_cycles\": {" name;
      List.iteri
        (fun j (lanes, w, _, _) ->
          Printf.fprintf oc "%s\"%d\": %d"
            (if j = 0 then "" else ", ")
            lanes w)
        runs;
      Printf.fprintf oc
        "},\n      \"speedup_at_4\": %.4f,\n      \"identical\": %b\n    }%s\n"
        speedup identical
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"heavy_speedup_at_4\": %.4f,\n" heavy_speedup;
  Printf.fprintf oc "  \"all_identical\": %b\n}\n" all_identical;
  close_out oc;
  Printf.printf "wrote BENCH_morsel.json\n";
  if heavy_speedup < 1.5 || not all_identical then exit 1

(* ---------------- driver ---------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("table2", table2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("table3", table3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("stencil", bench_stencil);
    ("serve", serve);
    ("serve-reopt", serve_reopt);
    ("serve-persist", serve_persist);
    ("serve-param", serve_param);
    ("serve-scaling", serve_scaling);
    ("serve-load", serve_load);
    ("join", bench_join);
    ("morsel", bench_morsel);
    ("fallbacks", fallbacks);
    ("ablation-struct", ablation_struct);
    ("ablation-codemodel", ablation_codemodel);
    ("ablation-tm", ablation_tm);
    ("bechamel", bechamel_suite);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = if args = [] || args = [ "all" ] then List.map fst experiments else args in
  List.iter
    (fun a ->
      match List.assoc_opt a experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s all\n" a
            (String.concat " " (List.map fst experiments));
          exit 1)
    args
