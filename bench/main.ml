(* Benchmark harness: regenerates every table and figure of
   "Compile-Time Analysis of Compiler Frameworks for Query Compilation"
   (CGO 2024). See DESIGN.md for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results.

   Usage:  bench/main.exe [table1|fig2|fig3|table2|fig4|fig5|table3|fig6|
                           fig7|stencil|serve|serve-reopt|serve-persist|
                           serve-param|serve-scaling|serve-load|join|morsel|
                           fallbacks|ablation-struct|ablation-codemodel|
                           ablation-tm|all]

   Every gated target ends in [emit]: it prints each gate's verdict,
   writes the target's records to BENCH_<bench>.json where the target
   keeps one, and exits 1 when a gate fails.

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
        (name, Qcomp_backend.Backend.name b, r))
      (List.filter (fun (n, _) -> n <> "Interpreter") (backends_for Target.x64))
  in
  (* what Engine.adaptive_backend would pick for each query, priced before
     it runs *)
  let picks =
    let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf in
    List.map
      (fun { Qcomp_workloads.Spec.q_name; q_plan; _ } ->
        let cq = Engine.plan_to_ir db ~name:q_name q_plan in
        (q_name, fst (Engine.adaptive_backend db q_plan cq.Qcomp_codegen.Codegen.modul)))
      (Experiments.queries_of Experiments.Tpch)
  in
  let queries =
    match results with
    | (_, _, r) :: _ -> List.map (fun q -> q.Experiments.qr_name) r.Experiments.wr_queries
    | [] -> []
  in
  let wins = Hashtbl.create 8 in
  let agree = ref 0 in
  List.iteri
    (fun i qname ->
      let best =
        List.fold_left
          (fun acc (name, bname, r) ->
            let q = List.nth r.Experiments.wr_queries i in
            let total =
              q.Experiments.qr_compile_s
              +. Experiments.cycles_to_seconds q.Experiments.qr_exec_cycles
            in
            match acc with
            | Some (_, _, t) when t <= total -> acc
            | _ -> Some (name, bname, total))
          None results
      in
      match best with
      | Some (name, bname, total) ->
          Hashtbl.replace wins name
            (1 + Option.value ~default:0 (Hashtbl.find_opt wins name));
          let pick = List.assoc qname picks in
          if String.equal pick bname then incr agree;
          Printf.printf "  %-5s -> %-12s (%.6f s)  adaptive pick %s\n" qname name total pick
      | None -> ())
    queries;
  print_string "wins:";
  Hashtbl.iter (fun k v -> Printf.printf " %s=%d" k v) wins;
  print_newline ();
  Printf.printf "adaptive_backend's pick is the measured best on %d of %d queries\n"
    !agree (List.length queries)

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

(* ---------------- records, gates and BENCH files ---------------- *)

(* Where a recorded value comes from: deterministic emulator cycles (or a
   ratio of them), a count, modelled seconds (deterministic, like every
   duration of the event-driven serving driver), host wall-clock seconds,
   or a check that holds or not. *)
type kind = Cycles | Count | Modelled_s | Wall_s | Check

let kind_name = function
  | Cycles -> "cycles"
  | Count -> "count"
  | Modelled_s -> "modelled_s"
  | Wall_s -> "wall_s"
  | Check -> "check"

type cmp = Eq | Ge | Gt | Le

(* One value a bench target measured. [baseline] is what the value is
   compared against: a committed pre-change figure, or the same run's
   reference configuration. [gate] is the condition the value must meet.
   A check's value is 1 when it holds and 0 when it does not. *)
type record = {
  bench : string;
  metric : string;
  unit : string;
  kind : kind;
  value : float;
  baseline : float option;
  gate : (cmp * float) option;
}

let record bench ?(unit = "") ?baseline ?gate kind metric value =
  { bench; metric; unit; kind; value; baseline; gate }

let check bench ?(gated = true) metric ok =
  record bench Check metric
    (if ok then 1.0 else 0.0)
    ?gate:(if gated then Some (Eq, 1.0) else None)

let holds (cmp, bound) v =
  match cmp with
  | Eq -> v = bound
  | Ge -> v >= bound
  | Gt -> v > bound
  | Le -> v <= bound

(* Integers print exactly and everything else to seven significant
   digits, so a rerun of a deterministic target rewrites its file byte
   for byte. *)
let show kind v =
  if kind = Check then string_of_bool (v <> 0.0)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.7g" v

let show_gate r (cmp, bound) =
  let op =
    match cmp with Eq -> "=" | Ge -> ">=" | Gt -> ">" | Le -> "<="
  in
  op ^ " " ^ show r.kind bound

let to_json r =
  let opt f = function None -> "null" | Some x -> f x in
  Printf.sprintf
    "{\"bench\": %S, \"metric\": %S, \"unit\": %S, \"kind\": %S, \"value\": %s, \
     \"baseline\": %s, \"gate\": %s}"
    r.bench r.metric r.unit (kind_name r.kind) (show r.kind r.value)
    (opt (show r.kind) r.baseline)
    (opt (fun g -> Printf.sprintf "%S" (show_gate r g)) r.gate)

(* The end of every gated target: prints each gated record's verdict,
   writes the records to BENCH_<bench>.json when [write], and exits 1
   when any gate fails. *)
let emit ?(write = false) records =
  let ok =
    List.fold_left
      (fun ok r ->
        match r.gate with
        | None -> ok
        | Some g ->
            let pass = holds g r.value in
            Printf.printf "%s: %s%s%s -> %s\n" r.metric (show r.kind r.value)
              (if r.unit = "" then "" else " " ^ r.unit)
              (if r.kind = Check then "" else " (" ^ show_gate r g ^ ")")
              (if pass then "OK" else "VIOLATION");
            ok && pass)
      true records
  in
  (match records with
  | r :: _ when write ->
      let file = "BENCH_" ^ r.bench ^ ".json" in
      let oc = open_out file in
      output_string oc
        ("[\n  " ^ String.concat ",\n  " (List.map to_json records) ^ "\n]\n");
      close_out oc;
      Printf.printf "wrote %s\n" file
  | _ -> ());
  if not ok then exit 1

(* ---------------- serving (lib/server) ---------------- *)

module Report = Qcomp_server.Report

let named_plans queries =
  List.map
    (fun (q : Qcomp_workloads.Spec.query) ->
      (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
    queries

(* A serving run's results as a sorted (name, rows, checksum) multiset:
   what two runs of one stream must agree on, whatever their schedule. *)
let result_multiset (r : Report.t) =
  List.sort compare
    (List.map
       (fun (q : Report.query_metrics) ->
         (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum))
       r.Report.r_queries)

(* Checksum of the sorted result rows: execution lanes and Direct hash
   tables emit rows in another order, so runs agree on the multiset, not
   necessarily on row order. *)
let multiset_checksum rows = Engine.checksum (List.sort compare rows)

let hit_rate (r : Report.t) =
  let s = r.Report.r_cache in
  let lookups = s.Qcomp_server.Lru.hits + s.Qcomp_server.Lru.misses in
  if lookups > 0 then
    100.0 *. float s.Qcomp_server.Lru.hits /. float lookups
  else 0.0

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
  let stream =
    Server.make_stream ~seed:42L ~n
      (named_plans (Experiments.queries_of Experiments.Tpch))
  in
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
      Printf.printf "best static back-end: %s\n" b.Report.r_mode;
      let r = record "serve" in
      emit
        [
          r Modelled_s "tiered_total_latency" ~unit:"s"
            tiered.Report.r_total_latency ~baseline:b.Report.r_total_latency
            ~gate:(Le, b.Report.r_total_latency);
          r Count "tiered_hit_rate" ~unit:"%" (hit_rate tiered) ~gate:(Gt, 0.0);
        ]
  | None -> ()

(* Tiered without reopt (the prior's pick only) vs the observation-driven
   tier controller (--reopt) on the same stream. At sf=1 the fan-out query
   scans so few rows that the prior picks a weak rung — but its join
   pipelines make the observed cycles-per-row high, so the controller
   re-prices and upgrades it mid-flight (and caches the stronger module for
   every later stream occurrence). The comparison metric is total machine
   seconds (compile charged + execution cycles), which is
   schedule-independent; rows/checksums must be bit-identical. *)
let serve_reopt () =
  header "Serving: the prior's pick vs observation-driven reopt";
  let open Qcomp_server in
  let n = 60 in
  (* sf=1 keeps the fan-out query's estimated work small — the
     under-prediction the controller exists to correct *)
  let sf = 1 in
  let queries =
    named_plans
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
  (* queries the controller carried past the prior's pick: the
     under-prediction cases the reopt mode exists for *)
  let prior_pick plan =
    fst
      (Engine.adaptive_backend rdb plan
         (Engine.plan_to_ir rdb ~name:"prior" plan).Qcomp_codegen.Codegen.modul)
  in
  let past_static =
    List.sort_uniq compare
      (List.filter_map
         (fun (q : Server.query_metrics) ->
           let plan = List.assoc q.Report.qm_name queries in
           let static_pick = prior_pick plan in
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
        "  %-8s the prior picked %s; observed cycles drove it to %s\n" nm
        static_pick final)
    past_static;
  let st = total static_r in
  emit
    [
      record "serve-reopt" Modelled_s "total_compile_execute" ~unit:"s"
        (total reopt_r) ~baseline:st ~gate:(Le, st);
      record "serve-reopt" Count "upgraded_past_static_pick" ~unit:"queries"
        (float (List.length past_static)) ~gate:(Ge, 1.0);
      check "serve-reopt" "results_identical"
        (result_multiset static_r = result_multiset reopt_r);
    ]

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
  let stream =
    Server.make_stream ~seed:42L ~n
      (named_plans (Experiments.queries_of Experiments.Tpch))
  in
  let config = { Server.default_config with Server.mode = Server.Cached } in
  let snap = Filename.temp_file "qcomp_snapshot" ".qcss" in
  let db = Experiments.make_db Target.x64 Experiments.Tpch ~sf:sf_tpch_small in
  let cache = Code_cache.create ~capacity:config.Server.cache_capacity in
  let cold = Server.run ~cache db config stream in
  Code_cache.save cache ~db snap;
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
  (* a query's foreground compile includes the parameter binds it paid:
     the gate is on back-end compile alone. Both sums add the same bind
     charges in different orders, so they are compared in whole
     nanoseconds. *)
  let ns s = Float.to_int (Float.round (s *. 1e9)) in
  let r = record "serve-persist" in
  emit
    [
      r Modelled_s "cold_compile" ~unit:"s" cold.Report.r_compile_stall_s
        ~gate:(Gt, 0.0);
      r Modelled_s "warm_compile_without_binds" ~unit:"ns"
        (float (ns warm.Report.r_compile_stall_s - ns warm.Report.r_bind_s))
        ~gate:(Eq, 0.0);
      r Count "warm_hit_rate" ~unit:"%" (hit_rate warm)
        ~baseline:(hit_rate cold) ~gate:(Ge, 99.9);
      check "serve-persist" "results_identical"
        (result_multiset cold = result_multiset warm);
    ]

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
   BENCH_param.json, with the paramize-off run as the baseline. *)
let serve_param () =
  header
    "Serving: shape-keyed parameterized cache vs per-query baseline (Zipf \
     literals)";
  let open Qcomp_server in
  let n = 120 in
  let stream = named_plans (Qcomp_workloads.Paramgen.stream ~seed:42L ~n) in
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
  let base = run ~paramize:false in
  let param = run ~paramize:true in
  Printf.printf "per-query-keyed baseline (paramize off):\n";
  Format.printf "%a@." (Server.pp_report ~per_query:false) base;
  Printf.printf "shape-keyed (paramize on):\n";
  Format.printf "%a@." (Server.pp_report ~per_query:false) param;
  let bs, ps = (base.Report.r_compile_stall_s, param.Report.r_compile_stall_s) in
  let shapes = Qcomp_workloads.Paramgen.shape_count in
  let r = record "param" in
  emit ~write:true
    [
      r Count "queries" (float n);
      r Count "distinct_plans"
        (float (List.length (List.sort_uniq compare (List.map fst stream))));
      r Count "shapes" (float shapes);
      r Modelled_s "compile_s_shape_keyed" ~unit:"s" ps ~baseline:bs;
      r Modelled_s "compile_reduction_x" ~unit:"x"
        (if ps > 0.0 then bs /. ps else infinity)
        ~gate:(Ge, 5.0);
      r Count "hit_rate_shape_keyed" ~unit:"%" (hit_rate param)
        ~baseline:(hit_rate base);
      (* in Cached mode every miss is a foreground back-end compile; with
         the shape key there must be at most one per shape *)
      r Count "shape_keyed_compiles"
        (float param.Report.r_cache.Lru.misses)
        ~gate:(Le, float shapes);
      r Count "shape_hits" (float param.Report.r_shape_hits);
      r Count "exact_hits" (float param.Report.r_exact_hits);
      r Count "binds" (float param.Report.r_binds);
      r Modelled_s "bind_s" ~unit:"s" param.Report.r_bind_s;
      check "param" "results_identical"
        (result_multiset base = result_multiset param);
    ]

(* Throughput scaling of the real Domain-based worker pool: the same
   tiered stream served on 1, 2 and 4 OS-thread domains. Unlike every
   other experiment here the timings are wall-clock, so only the scaling
   trend is meaningful — but rows/checksums are asserted identical across
   domain counts (the pool is exact, only the schedule varies). *)
let serve_scaling () =
  header "Serving: Domain-pool throughput scaling (1/2/4 domains, wall-clock)";
  let open Qcomp_server in
  let n = 60 in
  let stream =
    Server.make_stream ~seed:42L ~n
      (named_plans (Experiments.queries_of Experiments.Tpcds))
  in
  let cfg = { Server.default_config with Server.mode = Server.Tiered } in
  Printf.printf "TPC-DS-like, sf=%d, %d-query tiered stream\n" sf_tpch_small n;
  Printf.printf
    "host parallelism: %d (speedup is only observable above 1; on a \
     single-core host extra domains measure pure overhead)\n\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-10s %12s %14s\n" "domains" "makespan [s]" "queries/s";
  let results =
    List.map
      (fun domains ->
        let db =
          Experiments.make_db Target.x64 Experiments.Tpcds ~sf:sf_tpch_small
        in
        let r =
          Server.run ~parallel:true db { cfg with Server.workers = domains } stream
        in
        Printf.printf "%-10d %12.3f %14.1f\n" domains r.Report.r_makespan
          r.Report.r_throughput;
        result_multiset r)
      [ 1; 2; 4 ]
  in
  emit
    [
      check "serve-scaling" "results_identical_across_domains"
        (List.for_all (( = ) (List.hd results)) results);
    ]

(* ---------------- copy-and-patch stencil rung ---------------- *)

(* The stencil back-end's pitch is per-query code generation that is an
   order of magnitude under DirectEmit's encode loop, at execution speed
   between the interpreter and DirectEmit. This experiment measures
   exactly that on the TPC-H-like workload and records the result as
   BENCH_stencil.json, against the baselines below:

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
   x86-64 host, dune dev profile. The per-row baselines divide by this
   run's row count, which the checksums pin. *)
let always_spill_generation_s =
  [ ("stencil", 0.000545); ("directemit", 0.006286); ("cranelift", 0.023482) ]

let always_spill_exec_cycles =
  [ ("interpreter", 45_731_637); ("stencil", 24_498_844);
    ("directemit", 14_530_619); ("cranelift", 14_108_206) ]

let always_spill_ratio = 11.53

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
  let per_row cycles r = float cycles /. float (max 1 (rows_of r)) in
  (* what the serving drivers will do with the new rung *)
  let ladder = List.map fst (Engine.tier_ladder db) in
  let first_native = match ladder with _ :: n :: _ -> n | _ -> "" in
  let priced =
    List.for_all
      (fun name ->
        match
          let m = snd (List.hd modules) in
          ( Costmodel.compile_seconds ~backend:name m,
            Costmodel.exec_rate db.Engine.target name )
        with
        | _ -> true
        | exception Invalid_argument _ -> false)
      ladder
  in
  Printf.printf "%-12s %16s %12s %14s\n" "back-end" "artifact gen [s]"
    "exec [s]" "cycles/row";
  List.iter
    (fun (name, (r : Experiments.workload_result)) ->
      Printf.printf "%-12s %16.6f %12.3f %14.1f\n" name
        (try gen_of name with Not_found -> 0.0)
        (Experiments.cycles_to_seconds r.Experiments.wr_exec_cycles)
        (per_row r.Experiments.wr_exec_cycles r))
    runs;
  Printf.printf "\ntier ladder: %s\n" (String.concat " -> " ladder);
  if mismatches <> [] then
    Printf.printf "checksum mismatches: %s\n" (String.concat " " mismatches);
  let exec_cycles name = (List.assoc name runs).Experiments.wr_exec_cycles in
  let r = record "stencil" in
  emit ~write:true
    ([
       r Count "scale_factor" (float sf_tpch_small);
       r Count "queries" (float (List.length modules));
       r Wall_s "stencil_vs_directemit_compile" ~unit:"x"
         (gen_of "directemit" /. gen_of "stencil")
         ~baseline:always_spill_ratio ~gate:(Ge, 10.0);
     ]
    @ List.map
        (fun (name, s) ->
          r Wall_s ("artifact_generation_s." ^ name) ~unit:"s" s
            ~baseline:(List.assoc name always_spill_generation_s))
        artifact_s
    @ List.concat_map
        (fun (name, (w : Experiments.workload_result)) ->
          let base = List.assoc name always_spill_exec_cycles in
          [
            r Cycles ("exec_cycles." ^ name) ~unit:"cycles"
              (float w.Experiments.wr_exec_cycles)
              ~baseline:(float base);
            r Cycles ("cycles_per_row." ^ name) ~unit:"cycles/row"
              (per_row w.Experiments.wr_exec_cycles w)
              ~baseline:(per_row base w)
              ?gate:(if name = "stencil" then Some (Le, stencil_cpr_gate) else None);
          ])
        runs
    @ [
        check "stencil" "checksums_match_interpreter" (mismatches = []);
        check "stencil" "first_native_tier_is_stencil" (first_native = "stencil");
        check "stencil" "ladder_fully_priced" priced;
        r Cycles "stencil_exec_speedup_vs_interpreter" ~unit:"x"
          (float (exec_cycles "interpreter") /. float (exec_cycles "stencil"))
          ~gate:(Gt, 1.0);
      ])

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
   Recorded as BENCH_load.json; the pool run's latencies are wall-clock,
   so unlike the other files it does not rewrite byte for byte. *)
let serve_load () =
  header
    "Serving under load: open-loop traffic, admission control, tail latency";
  let open Qcomp_server in
  let n = 120 in
  let tenants = 3 in
  let queries = named_plans (Experiments.queries_of Experiments.Tpch) in
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
  let print_report name (r : Server.report) =
    Printf.printf "%s:\n" name;
    Format.printf "%a@." (Server.pp_report ~per_query:false) r
  in
  print_report
    (Printf.sprintf "steady  %s, cap 256, %d tenants"
       (Qcomp_workloads.Trafficgen.arrival_name steady_arrival) tenants)
    steady;
  print_report
    (Printf.sprintf "overload  %s, cap %d"
       (Qcomp_workloads.Trafficgen.arrival_name burst_arrival) cap)
    overload;
  print_report "overload uncapped (differential baseline)" uncapped;
  print_report "steady on 2-domain pool (wall-clock), cap n+1" pool;
  let ordered (r : Server.report) =
    r.Report.r_p99_latency >= r.Report.r_p95_latency
    && r.Report.r_p95_latency >= r.Report.r_p50_latency
    && r.Report.r_p99_first_row >= r.Report.r_p95_first_row
    && r.Report.r_p95_first_row >= r.Report.r_p50_first_row
  in
  let r = record "load" in
  let scenario ?shed ?peak ?(kind = Modelled_s) name (rep : Server.report) =
    let seconds metric v = r kind (name ^ "." ^ metric) ~unit:"s" v in
    [
      r Count (name ^ ".completed") (float (List.length rep.Report.r_queries));
      r Count (name ^ ".shed") (float (List.length rep.Report.r_sheds)) ?gate:shed;
      r Count (name ^ ".queue_peak") (float rep.Report.r_queue_peak) ?gate:peak;
      seconds "p50_s" rep.Report.r_p50_latency;
      seconds "p95_s" rep.Report.r_p95_latency;
      seconds "p99_s" rep.Report.r_p99_latency;
      seconds "max_s" rep.Report.r_max_latency;
      seconds "mean_s" rep.Report.r_mean_latency;
      seconds "p50_first_row_s" rep.Report.r_p50_first_row;
      seconds "p95_first_row_s" rep.Report.r_p95_first_row;
      seconds "p99_first_row_s" rep.Report.r_p99_first_row;
      (* compile charges are modelled on both drivers *)
      r Modelled_s (name ^ ".compile_stall_s") ~unit:"s"
        rep.Report.r_compile_stall_s;
    ]
  in
  (* every query the capped run admitted must be bit-identical uncapped *)
  let uncapped_set = result_multiset uncapped in
  emit ~write:true
    ([ r Count "requests" (float n); r Count "tenants" (float tenants);
       r Count "cap" (float cap) ]
    @ scenario "steady" steady ~shed:(Eq, 0.0)
    @ scenario "overload" overload ~shed:(Gt, 0.0) ~peak:(Le, float cap)
    @ scenario "uncapped" uncapped ~shed:(Eq, 0.0)
    @ scenario "pool_steady" pool ~kind:Wall_s ~shed:(Eq, 0.0)
    @ [
        check "load" "admitted_identical"
          (List.for_all
             (fun k -> List.mem k uncapped_set)
             (result_multiset overload));
        check "load" "percentiles_ordered"
          (List.for_all ordered [ steady; overload; uncapped; pool ]);
        (* same seed, same cap -> byte-identical report, shed set included *)
        check "load" "repeat_identical"
          (result_multiset overload = result_multiset overload2
          && overload.Report.r_sheds = overload2.Report.r_sheds
          && overload.Report.r_queue_peak = overload2.Report.r_queue_peak
          && overload.Report.r_makespan = overload2.Report.r_makespan);
      ])

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
  let r = record "join" in
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
        let cpp_base = float bc /. float bp in
        let cpp_tagged = float tc /. float (max 1 tp) in
        Printf.printf
          "%-12s baseline %.2f cyc/probe (%d probes)  tagged %.2f cyc/probe \
           (%d probes, %d direct)  %+.1f%%  identical across back-ends: %b\n"
          jname cpp_base bp cpp_tagged tp dp
          (100.0 *. ((cpp_tagged /. cpp_base) -. 1.0))
          identical;
        let metric m = jname ^ "." ^ m in
        ( jname,
          1.0 -. (cpp_tagged /. cpp_base),
          identical,
          [
            r Cycles (metric "cycles_per_probe") ~unit:"cycles/probe" cpp_tagged
              ~baseline:cpp_base;
            r Count (metric "probes") ~unit:"probes" (float tp) ~baseline:(float bp);
            (* the dense-key join must be served by direct addressing *)
            r Count (metric "direct_probes") ~unit:"probes" (float dp)
              ?gate:
                (if jname = "dense_key" then Some (Ge, float (tp / 2)) else None);
            r Cycles (metric "exec_cycles") ~unit:"cycles" (float ec);
            check "join" ~gated:false (metric "identical_across_backends")
              identical;
          ] ))
      joins
  in
  let _, miss_improvement, _, _ =
    List.find (fun (n, _, _, _) -> n = "miss_heavy") results
  in
  emit ~write:true
    ((r Count "scale_factor" (float sf)
     :: List.concat_map (fun (_, _, _, records) -> records) results)
    @ [
        r Cycles "miss_heavy_improvement" ~unit:"fraction" miss_improvement
          ~gate:(Ge, 0.25);
        check "join" "all_identical"
          (List.for_all (fun (_, _, ok, _) -> ok) results);
      ])

(* Intra-query morsel-driven parallelism: simulated wall-clock cycles of
   heavy TPC-H queries at 1/2/4 lanes on one compiled module (stencil
   tier). Gate: the scan-dominated aggregate (q01) must clear a 1.5x
   wall-cycle speedup at 4 lanes, and every lane count must reproduce
   the serial multiset. Recorded as BENCH_morsel.json. *)
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
  let r = record "morsel" in
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
                  let res = Exec.result ex in
                  let wall = Exec.wall_cycles ex in
                  Exec.dispose ex;
                  (lanes, wall, multiset_checksum res.Engine.rows))
                scheds
            in
            let _, w1, sum1 = List.hd runs in
            let identical =
              List.for_all (fun (_, _, s) -> Int64.equal s sum1) runs
            in
            let _, w4, _ = List.nth runs (List.length runs - 1) in
            let speedup = float w1 /. float (max 1 w4) in
            Printf.printf "%-4s  wall cycles" name;
            List.iter (fun (lanes, w, _) -> Printf.printf "  @%d: %9d" lanes w) runs;
            Printf.printf "  speedup@4: %.2fx  multisets %s\n" speedup
              (if identical then "identical" else "DIVERGED");
            ( identical,
              List.map
                (fun (lanes, w, _) ->
                  r Cycles (Printf.sprintf "%s.wall_cycles_at_%d" name lanes)
                    ~unit:"cycles" (float w))
                runs
              @ [
                  (* the scan-dominated aggregate carries the gate *)
                  r Cycles (name ^ ".speedup_at_4") ~unit:"x" speedup
                    ?gate:(if name = "q01" then Some (Ge, 1.5) else None);
                  check "morsel" ~gated:false (name ^ ".identical") identical;
                ] )))
      queries
  in
  line ();
  emit ~write:true
    ((r Count "scale_factor" (float sf) :: List.concat_map snd results)
    @ [ check "morsel" "all_identical" (List.for_all fst results) ])

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
