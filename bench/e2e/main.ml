(* End-to-end benchmark of the query-compilation and serving stack.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
     main.exe compare PARENT.jsonl CHANGE.jsonl

   Three workloads (README.md says why each): the paper's compile sweep of
   the 103 TPC-DS-like plans over all seven x86-64 back-ends, and two
   seeded open-loop serving traces on the deterministic discrete-event
   driver. The seed draws every input -- table contents, query order,
   arrival times, tenants and literal variants; the program only receives
   plans and requests. Everything runs in this process on one domain.

   The last line of standard output is one JSON object: with --trace 0 it
   carries the end-to-end metrics of BENCHMARK.json, with --trace 1 the
   per-layer metrics, read from spans the benchmark records around its
   calls into each layer. Every result is checked against the interpreter;
   any mismatch, shed or exception makes the exit code non-zero. *)

open Qcomp_engine
open Qcomp_support
module Backend = Qcomp_backend.Backend
module Codegen = Qcomp_codegen.Codegen
module Htable = Qcomp_runtime.Htable
module Memory = Qcomp_vm.Memory
module Report = Qcomp_server.Report
module Server = Qcomp_server.Server
module Spec = Qcomp_workloads.Spec

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** mismatches and determinism breaks, named *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
}

let now = Timing.now
let ms s = 1000.0 *. s
let safe_div a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0

let geomean xs =
  exp (sum (List.map log xs) /. float_of_int (List.length xs))

let untimed = Timing.create ~enabled:false ()

(* ---------------- inputs drawn from the seed ---------------- *)

(* The seed redraws the fact tables' rows, so a later commit's gain has to
   hold over data it was not tuned on. Dimension tables keep their
   generator seeds: at these scale factors they hold tens of rows, and
   redrawing them moves single join selectivities by a fifth, which would
   swamp every latency with the luck of one draw. *)
let facts = [ "lineitem"; "orders"; "partsupp"; "store_sales"; "catalog_sales"; "web_sales" ]

(* 64 MiB of emulated memory: tables and every workload's peak working
   set fit several times over, and the host process stays small. *)
let mem_size = 64 * 1024 * 1024

let build_db ~seed ~sf specs =
  let db = Engine.create_db ~mem_size Qcomp_vm.Target.x64 in
  List.iter
    (fun (s : Spec.table_spec) ->
      let fact = List.mem s.Spec.schema.Qcomp_storage.Schema.table_name facts in
      ignore
        (Engine.add_table db s.Spec.schema ~rows:(s.Spec.rows_at sf)
           ~seed:(if fact then Int64.add s.Spec.seed (Int64.mul seed 1_000_003L) else s.Spec.seed)
           s.Spec.gens))
    specs;
  db

let setup_builds = 5

(* Set-up is timed as the median of several database builds, so work
   moved into set-up shows; only the last build is kept. *)
let setup build =
  let last = ref None in
  let times =
    List.init setup_builds (fun _ ->
        last := None;
        Gc.full_major ();
        let t0 = now () in
        let db = build () in
        let t = now () -. t0 in
        last := Some db;
        t)
  in
  (Stats.median times, Option.get !last)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Zipf(1.1) over ranks, the law Trafficgen and Paramgen draw from. *)
let zipf_weights k =
  let w = Array.init k (fun i -> 1.0 /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* Largest-remainder apportionment of [n] draws over [weights]. *)
let apportion n weights =
  let exact = Array.map (fun w -> float_of_int n *. w) weights in
  let counts = Array.map (fun x -> int_of_float (floor x)) exact in
  let order = Array.init (Array.length weights) Fun.id in
  let frac i = exact.(i) -. floor exact.(i) in
  Array.stable_sort (fun a b -> compare (frac b) (frac a)) order;
  for j = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(j)) <- counts.(order.(j)) + 1
  done;
  counts

(* A stratified draw: every rank appears exactly as often as its weight
   asks, in seeded order. Independent draws would let the seed decide how
   often the heavy queries run, and every latency with it; stratified,
   the seed moves the order, the arrival gaps and the data, not the mix. *)
let stratified rng n weights =
  let counts = apportion n weights in
  shuffle rng
    (Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts)))

(* ---------------- back-ends and the compile layer ---------------- *)

let backends =
  [
    Engine.interpreter; Engine.stencil; Engine.directemit; Engine.cranelift;
    Engine.llvm_cheap; Engine.llvm_opt; Engine.gcc;
  ]

let be_names = List.map Backend.name backends

(* Top-level Timing phases reported per back-end (the paper's Table I and
   Figs. 2-5); phases under ~2% of their back-end's compile time are left
   out. *)
let phases =
  [
    ("interpreter", [ "Translate" ]);
    ("stencil", [ "CodeGen" ]);
    ("directemit", [ "Analysis"; "CodeGen" ]);
    ("cranelift", [ "IRGen"; "IRPasses"; "ISelPrepare"; "ISel"; "RegAlloc"; "Emit" ]);
    ( "llvm-cheap",
      [ "IRGen"; "IRPasses"; "ISel"; "PHIElimination"; "TwoAddress"; "RegAlloc"; "PrologEpilog";
        "AsmPrinter"; "ObjectEmit" ] );
    ( "llvm-opt",
      [ "IRGen"; "Optimize"; "IRPasses"; "ISel"; "PHIElimination"; "TwoAddress"; "RegAlloc";
        "PrologEpilog"; "AsmPrinter" ] );
    ("gcc", [ "GenerateC"; "Parse"; "Optimize"; "CodeGen"; "Assembler" ]);
  ]

let compile_module db b (cq : Codegen.compiled) =
  Backend.compile_module b ~timing:untimed ~emu:db.Engine.emu
    ~registry:db.Engine.registry ~unwind:db.Engine.unwind cq.Codegen.modul

let ir_insts (cq : Codegen.compiled) =
  Vec.fold_left
    (fun a (f : Qcomp_ir.Func.t) -> a + f.Qcomp_ir.Func.n_insts)
    0 cq.Codegen.modul.Qcomp_ir.Func.funcs

let codegen tr db ~request (q : Spec.query) =
  Trace.host tr ~request "codegen" (fun _ ->
      let cq = Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan in
      (cq, [ ("query", Json.Str q.Spec.q_name); ("ir_insts", Json.Int (ir_insts cq)) ]))

let fallbacks stats =
  sumi
    (List.filter_map
       (fun (k, v) ->
         if String.length k > 9 && String.sub k 0 9 = "fallback_" then Some v else None)
       stats)

(* The traced compile of one module: native back-ends compile to a
   relocatable artifact (one span, Timing phases as attributes) that is
   then linked (a second span); the interpreter's translation is its whole
   compile. *)
let traced_compile tr ~parent ~request db b (cq : Codegen.compiled) =
  let timing = Timing.create ~enabled:true () in
  let phase_attrs () =
    ("backend", Json.Str (Backend.name b))
    :: List.map (fun (p, s) -> ("phase." ^ p, Json.Num s)) (Timing.flat timing)
  in
  let modul = cq.Codegen.modul in
  match Backend.compile_artifact b with
  | None ->
      Trace.host tr ~parent ~request "compile" (fun _ ->
          let cm =
            Backend.compile_module b ~timing ~emu:db.Engine.emu
              ~registry:db.Engine.registry ~unwind:db.Engine.unwind modul
          in
          (cm, phase_attrs ()))
  | Some compile ->
      let art =
        Trace.host tr ~parent ~request "compile" (fun _ ->
            let art = compile ~timing ~target:db.Engine.target ~registry:db.Engine.registry modul in
            ( art,
              phase_attrs ()
              @ [
                  ("code_bytes", Json.Int art.Qcomp_backend.Artifact.a_code_size);
                  ("fallbacks", Json.Int (fallbacks art.Qcomp_backend.Artifact.a_stats));
                ] ))
      in
      Trace.host tr ~parent ~request "link" (fun _ ->
          ( Backend.link_artifact ~timing:untimed ~emu:db.Engine.emu
              ~registry:db.Engine.registry ~unwind:db.Engine.unwind art,
            [ ("backend", Json.Str (Backend.name b)) ] ))

(* Per-layer compile metrics from the traced "compile"/"link" spans, with
   the tracing overhead against [untraced_ms] (back-end -> untraced ms per
   module). *)
let compile_layer tr ~untraced_ms =
  let per_be =
    List.map
      (fun be ->
        let comps = Trace.select tr ~key:"backend" ~value:be "compile" in
        let links = Trace.select tr ~key:"backend" ~value:be "link" in
        let n = float_of_int (max 1 (List.length comps)) in
        let total = sum (List.map Trace.duration comps) +. sum (List.map Trace.duration links) in
        let phase p = ms (sum (List.map (fun s -> Trace.attr_float s ("phase." ^ p)) comps)) /. n in
        let native = be <> "interpreter" in
        ( be,
          ms total /. n,
          [ metric (Printf.sprintf "compile.%s.ms_per_module" be) "ms" (ms total /. n) ]
          @ (if native then
               [
                 metric (Printf.sprintf "compile.%s.link_ms_per_module" be) "ms"
                   (ms (sum (List.map Trace.duration links)) /. n);
                 metric (Printf.sprintf "compile.%s.code_bytes_per_module" be) "bytes"
                   (sum (List.map (fun s -> Trace.attr_float s "code_bytes") comps) /. n);
               ]
             else [])
          @ List.map
              (fun p -> metric (Printf.sprintf "compile.%s.phase.%s_ms" be p) "ms" (phase p))
              (List.assoc be phases)
          @
          if be = "llvm-cheap" then
            [
              metric "compile.llvm-cheap.fallbacks" "count"
                (sum (List.map (fun s -> Trace.attr_float s "fallbacks") comps));
            ]
          else [] ))
      be_names
  in
  let traced = sum (List.map (fun (_, t, _) -> t) per_be) in
  let untraced = sum (List.map (fun be -> List.assoc be untraced_ms) be_names) in
  let codegens = Trace.select tr "codegen" in
  let n = float_of_int (max 1 (List.length codegens)) in
  [
    metric "codegen.ms_per_plan" "ms" (ms (sum (List.map Trace.duration codegens)) /. n);
    metric "codegen.ir_insts_per_plan" "count"
      (sum (List.map (fun s -> Trace.attr_float s "ir_insts") codegens) /. n);
  ]
  @ List.concat_map (fun (_, _, m) -> m) per_be
  @ [ metric "trace.compile_overhead_frac" "ratio" (safe_div traced untraced -. 1.0) ]

(* The compile layer on a set of plans, hot: per back-end one untraced
   sweep, timed as a whole, then one traced sweep whose "pair" spans (with
   "compile" and "link" children) feed {!compile_layer}. Returns the
   untraced ms per module by back-end, the base of the tracing overhead. *)
let compile_pass tr db plans =
  let np = float_of_int (List.length plans) in
  List.map
    (fun b ->
      let t0 = now () in
      List.iter (fun (_, _, cq) -> Engine.dispose_module db (compile_module db b cq)) plans;
      let untraced = ms (now () -. t0) /. np in
      List.iter
        (fun (request, (q : Spec.query), cq) ->
          Trace.host tr ~request "pair" (fun parent ->
              Engine.dispose_module db (traced_compile tr ~parent ~request db b cq);
              ((), [ ("backend", Json.Str (Backend.name b)); ("query", Json.Str q.Spec.q_name) ])))
        plans;
      (Backend.name b, untraced))
    backends

(* ---------------- the correctness gate ---------------- *)

(* The interpreter's (rows, checksum) per distinct exact plan. Lanes merge
   hash tables in lane order, so with [sorted] the checksum is taken over
   the sorted row multiset, as the serving driver does for intra > 1. *)
let reference db ~sorted plans =
  let refs = Hashtbl.create 256 in
  List.iter
    (fun (name, plan) ->
      if not (Hashtbl.mem refs name) then
        Engine.with_compiled db ~backend:Engine.interpreter ~timing:untimed ~name plan
          (fun cq cm _ ->
            let r = Engine.execute db cq cm in
            let rows = if sorted then List.sort compare r.Engine.rows else r.Engine.rows in
            Hashtbl.replace refs name (r.Engine.output_count, Engine.checksum rows)))
    plans;
  refs

let checked refs ~what name rows checksum =
  match Hashtbl.find_opt refs name with
  | Some (r, c) when r = rows && Int64.equal c checksum -> None
  | Some (r, c) ->
      Some
        (Printf.sprintf "%s %s: rows %d checksum %016Lx, interpreter %d %016Lx" what name
           rows checksum r c)
  | None -> Some (Printf.sprintf "%s %s: no reference result" what name)

let timed_check f =
  let t0 = now () in
  let r = f () in
  Printf.printf "  check_s %.3f (interpreter reference, not a metric)\n" (now () -. t0);
  r

(* ---------------- shared per-layer helpers ---------------- *)

let htable_delta (a : Htable.stats) (b : Htable.stats) =
  [
    ("probes", b.Htable.probes - a.Htable.probes);
    ("probe_cycles", b.Htable.probe_cycles - a.Htable.probe_cycles);
    ("tag_words", b.Htable.tag_words - a.Htable.tag_words);
    ("tag_hits", b.Htable.tag_hits - a.Htable.tag_hits);
    ("direct_probes", b.Htable.direct_probes - a.Htable.direct_probes);
    ("grows", b.Htable.grows - a.Htable.grows);
    ("fallbacks", b.Htable.fallbacks - a.Htable.fallbacks);
  ]

let htable_attrs d = List.map (fun (k, v) -> ("ht." ^ k, Json.Int v)) d

let htable_metrics spans =
  let get k = sum (List.map (fun s -> Trace.attr_float s ("ht." ^ k)) spans) in
  [
    metric "htable.probes" "count" (get "probes");
    metric "htable.cycles_per_probe" "cycles" (safe_div (get "probe_cycles") (get "probes"));
    metric "htable.tag_hit_frac" "ratio" (safe_div (get "tag_hits") (get "tag_words"));
    metric "htable.direct_frac" "ratio" (safe_div (get "direct_probes") (get "probes"));
    metric "htable.grows" "count" (get "grows");
    metric "htable.fallbacks" "count" (get "fallbacks");
  ]

(* The interpreter runs bytecode on the host and retires no emulated
   instructions, so it reports cycles only. *)
let vm_metrics ~per_be ~host_s ~cycles =
  List.concat_map
    (fun be ->
      let cycles, instructions = Option.value ~default:(0.0, 0.0) (List.assoc_opt be per_be) in
      metric (Printf.sprintf "vm.%s.cycles_per_query" be) "cycles" cycles
      ::
      (if be = "interpreter" then []
       else [ metric (Printf.sprintf "vm.%s.instructions_per_query" be) "count" instructions ]))
    be_names
  @ [ metric "vm.host_ns_per_kcycle" "ns" (safe_div (host_s *. 1e12) cycles) ]

let mem_metrics ~peak_code ~peak_data ~growth =
  [
    metric "mem.peak_code_bytes" "bytes" (float_of_int peak_code);
    metric "mem.peak_data_bytes" "bytes" (float_of_int peak_data);
    metric "mem.live_data_growth_bytes" "bytes" growth;
  ]

(* ---------------- ds-sweep: the paper's compile sweep ---------------- *)

let ds_sf = 2
let sample_min_s = 0.2
let min_rounds = 3

type pair = {
  p_be : int;
  p_qi : int;
  p_query : string;
  p_rows : int;
  p_checksum : int64;
  p_exec_s : float;  (** simulated *)
}

let ds_sweep ~seed ~seconds ~tr =
  let setup_s, db =
    setup (fun () -> build_db ~seed ~sf:ds_sf (Qcomp_workloads.Tpcds.tables ds_sf))
  in
  let mem = Engine.memory db in
  let live0 = Memory.live_data_bytes mem in
  let queries =
    Array.to_list (shuffle (Rng.create seed) (Array.of_list Qcomp_workloads.Tpcds.queries))
  in
  let nq = List.length queries in
  (* codegen once, outside every compile timing *)
  let cqs = List.mapi (fun i q -> codegen tr db ~request:(i + 1) q) queries in
  let named = List.combine queries cqs in
  let sweep b ~on_module =
    List.iteri
      (fun qi cq ->
        let t0 = now () in
        let cm = compile_module db b cq in
        on_module qi (now () -. t0);
        Engine.dispose_module db cm)
      cqs
  in
  List.iter (fun b -> sweep b ~on_module:(fun _ _ -> ())) backends;
  (* round-robin samples: each is >= sample_min_s of back-to-back sweeps,
     after a full major collection; the first sweep of a sample also times
     every module on its own, for the per-query latency *)
  let samples = Array.make (List.length backends) [] in
  let module_times = ref [] in
  let deadline = now () +. seconds in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () < deadline do
    List.iteri
      (fun bi b ->
        Gc.full_major ();
        let first = ref true in
        let per_sweep, _ =
          Stats.batched ~now ~min_s:sample_min_s (fun () ->
              if !first then begin
                first := false;
                sweep b ~on_module:(fun qi s -> module_times := (bi, qi, s) :: !module_times)
              end
              else sweep b ~on_module:(fun _ _ -> ()))
        in
        samples.(bi) <- per_sweep :: samples.(bi))
      backends;
    incr rounds
  done;
  let traced = Trace.enabled tr in
  let untraced_ms =
    if traced then
      compile_pass tr db (List.mapi (fun i (q, cq) -> (i + 1, q, cq)) named)
    else []
  in
  (* one execution per (back-end, query) *)
  let pairs =
    List.concat
      (List.mapi
         (fun bi b ->
           let be = Backend.name b in
           List.mapi
             (fun qi ((q : Spec.query), cq) ->
               let request = qi + 1 in
               let cm = compile_module db b cq in
               let r =
                 Trace.host tr ~request "execute" (fun _ ->
                     let h0 = Htable.stats () in
                     let r = Engine.execute db cq cm in
                     ( r,
                       [
                         ("backend", Json.Str be);
                         ("query", Json.Str q.Spec.q_name);
                         ("cycles", Json.Int r.Engine.exec_cycles);
                         ("instructions", Json.Int r.Engine.exec_instructions);
                       ]
                       @ htable_attrs (htable_delta h0 (Htable.stats ())) ))
               in
               Engine.dispose_module db cm;
               {
                 p_be = bi;
                 p_qi = qi;
                 p_query = q.Spec.q_name;
                 p_rows = r.Engine.output_count;
                 p_checksum = Engine.checksum r.Engine.rows;
                 p_exec_s = Engine.cycles_to_seconds r.Engine.exec_cycles;
               })
             named)
         backends)
  in
  let peak_code = Qcomp_vm.Emu.peak_code_bytes db.Engine.emu in
  let peak_data = Memory.peak_data_bytes mem - live0 in
  let growth = float_of_int (Memory.live_data_bytes mem - live0) in
  let problems =
    timed_check (fun () ->
        let refs =
          reference db ~sorted:false
            (List.map (fun (q : Spec.query) -> (q.Spec.q_name, q.Spec.q_plan)) queries)
        in
        List.filter_map
          (fun p ->
            checked refs ~what:(List.nth be_names p.p_be) p.p_query p.p_rows p.p_checksum)
          pairs)
  in
  let exec_s = Array.make_matrix (List.length backends) nq 0.0 in
  List.iter (fun p -> exec_s.(p.p_be).(p.p_qi) <- p.p_exec_s) pairs;
  let median_sweep bi = Stats.median samples.(bi) in
  Printf.printf "  %-12s %14s %10s %14s\n" "back-end" "compile s/sweep" "spread" "exec s (sim)";
  List.iteri
    (fun bi be ->
      Printf.printf "  %-12s %14.6f %9.1f%% %14.6f\n" be (median_sweep bi)
        (100.0 *. Stats.spread samples.(bi))
        (Array.fold_left ( +. ) 0.0 exec_s.(bi)))
    be_names;
  let per_module_ms bi = ms (median_sweep bi) /. float_of_int nq in
  let latencies = List.map (fun (bi, qi, s) -> s +. exec_s.(bi).(qi)) !module_times in
  let per_layer =
    if not traced then []
    else
      let executes = Trace.select tr "execute" in
      let per_be =
        List.map
          (fun be ->
            let spans = List.filter (fun s -> Trace.attr_str s "backend" = be) executes in
            let per_q k = sum (List.map (fun s -> Trace.attr_float s k) spans) /. float_of_int nq in
            (be, (per_q "cycles", per_q "instructions")))
          be_names
      in
      compile_layer tr ~untraced_ms
      @ vm_metrics ~per_be ~host_s:(sum (List.map Trace.duration executes))
          ~cycles:(sum (List.map (fun s -> Trace.attr_float s "cycles") executes))
      @ htable_metrics executes
      @ [
          (* no server in this workload: no queue, no cache, no tiers *)
          metric "admission.wait_share" "ratio" 0.0;
          metric "admission.waited_frac" "ratio" 0.0;
          metric "admission.queue_peak" "count" 0.0;
          metric "admission.shed" "count" 0.0;
          metric "cache.miss_per_request" "ratio" 0.0;
          metric "cache.evictions" "count" 0.0;
          metric "cache.exact_hits" "count" 0.0;
          metric "cache.shape_hits" "count" 0.0;
          metric "cache.binds" "count" 0.0;
          metric "cache.stall_share" "ratio" 0.0;
          metric "tier.switchovers" "count" 0.0;
          metric "tier.multi_upgrade_queries" "count" 0.0;
          metric "tier.tier0_quanta_frac" "ratio" 0.0;
          (* serial execution: every billed cycle is a wall cycle *)
          metric "morsel.lane_efficiency" "ratio" 1.0;
        ]
      @ mem_metrics ~peak_code ~peak_data ~growth
  in
  {
    attempted = List.length pairs;
    failed = List.length problems;
    problems;
    end_to_end =
      [
        metric "setup_s" "s" setup_s;
        metric "host_ms_per_query" "ms" (geomean (List.mapi (fun bi _ -> per_module_ms bi) backends));
        metric "exec_ms_per_query" "ms"
          (geomean
             (List.map (fun row -> ms (Array.fold_left ( +. ) 0.0 row) /. float_of_int nq)
                (Array.to_list exec_s)));
        metric "latency_p50_s" "s" (Stats.percentile latencies 0.50);
        metric "latency_p99_s" "s" (Stats.percentile latencies 0.99);
      ];
    per_layer;
  }

(* ---------------- serving traces ---------------- *)

type serving = {
  sv_tables : int -> Spec.table_spec list;
  sv_sf : int;
  sv_pool : Spec.query list;  (** in popularity order, hottest first *)
  sv_variant_every : int;  (** every k-th request is a Paramgen variant; 0 = none *)
  sv_qps : float;
  sv_requests : int;
  sv_config : Server.config;
}

let tenants = 2

(* Cache misses, evictions, binds and tier-0 interpretation: the 22
   TPC-H and 103 TPC-DS plans plus literal variants, some 250 distinct
   plans, against a 64-entry cache, on one database holding both table
   sets (their names do not collide). 2,000 requests, since this
   workload's latencies move with the order of its misses. *)
let mix_churn =
  {
    sv_tables =
      (fun sf -> Qcomp_workloads.Tpch.tables sf @ Qcomp_workloads.Tpcds.tables sf);
    sv_sf = 1;
    sv_pool = Qcomp_workloads.Tpch.queries @ Qcomp_workloads.Tpcds.queries;
    sv_variant_every = 3;
    sv_qps = 12_000.0;
    sv_requests = 2000;
    sv_config =
      {
        Server.default_config with
        Server.mode = Server.Tiered;
        reopt = false;
        workers = 4;
        intra = 1;
        paramize = true;
        tenants;
        cache_capacity = 64;
      };
  }

(* Every plan stays cached: generated code, hash-table build and probe,
   lane merges and tier upgrades make up the latency. *)
let h_heavy =
  {
    sv_tables = Qcomp_workloads.Tpch.tables;
    sv_sf = 2;
    sv_pool = Qcomp_workloads.Tpch.queries;
    sv_variant_every = 0;
    sv_qps = 8_000.0;
    sv_requests = 1000;
    sv_config =
      {
        Server.default_config with
        Server.mode = Server.Tiered;
        reopt = true;
        workers = 4;
        intra = 4;
        paramize = true;
        tenants;
        cache_capacity = 64;
      };
  }

(* The open-loop trace: Poisson arrivals and tenants from Trafficgen
   (seed S), the pool's Zipf mix in seeded order, and every k-th request a
   Zipf-literal Paramgen variant (seed S+1). *)
let requests sv ~seed =
  let n = sv.sv_requests in
  let is_variant i = sv.sv_variant_every > 0 && i mod sv.sv_variant_every = sv.sv_variant_every - 1 in
  let n_var = List.length (List.filter is_variant (List.init n Fun.id)) in
  let pool = Array.of_list sv.sv_pool in
  let main = stratified (Rng.split (Rng.create seed)) (n - n_var) (zipf_weights (Array.length pool)) in
  let lits = Qcomp_workloads.Paramgen.literals_per_shape in
  let shapes = Qcomp_workloads.Paramgen.shape_count in
  let variants =
    stratified
      (Rng.create (Int64.add seed 1L))
      n_var
      (Array.concat
         (List.init shapes (fun _ ->
              Array.map (fun w -> w /. float_of_int shapes) (zipf_weights lits))))
  in
  let arrivals =
    Qcomp_workloads.Trafficgen.stream
      ~arrival:(Qcomp_workloads.Trafficgen.Poisson { qps = sv.sv_qps })
      ~seed ~n ~tenants:sv.sv_config.Server.tenants
      (List.map (fun (q : Spec.query) -> (q.Spec.q_name, q.Spec.q_plan)) sv.sv_pool)
  in
  let mi = ref 0 and vi = ref 0 in
  List.mapi
    (fun i (_, _, at, tenant) ->
      let q =
        if is_variant i then begin
          let k = variants.(!vi) in
          incr vi;
          Qcomp_workloads.Paramgen.variant (k / lits) (k mod lits)
        end
        else begin
          let k = main.(!mi) in
          incr mi;
          pool.(k)
        end
      in
      { Server.rq_name = q.Spec.q_name; rq_plan = q.Spec.q_plan; rq_arrival = at; rq_tenant = tenant })
    arrivals

type rep = {
  report : (Report.t, string) result;
  wall_s : float;
  live_after : int;
}

(* What must repeat exactly between reps of one trace: the virtual-time
   summary and each query's (name, rows, checksum, cycles) in completion
   order. Memory peaks are excluded -- they are high-water marks over the
   database's lifetime. *)
let first_difference (a : Report.t) (b : Report.t) =
  let fields =
    [
      ("p50 latency", a.Report.r_p50_latency = b.Report.r_p50_latency);
      ("p99 latency", a.Report.r_p99_latency = b.Report.r_p99_latency);
      ("makespan", a.Report.r_makespan = b.Report.r_makespan);
      ("total latency", a.Report.r_total_latency = b.Report.r_total_latency);
      ("compile stall", a.Report.r_compile_stall_s = b.Report.r_compile_stall_s);
      ("switchovers", a.Report.r_switchovers = b.Report.r_switchovers);
      ("sheds", a.Report.r_sheds = b.Report.r_sheds);
      ("queue peak", a.Report.r_queue_peak = b.Report.r_queue_peak);
      ("cache stats", a.Report.r_cache = b.Report.r_cache);
      ("binds", a.Report.r_binds = b.Report.r_binds);
    ]
  in
  match List.find_opt (fun (_, same) -> not same) fields with
  | Some (f, _) -> Some f
  | None ->
      let key (q : Report.query_metrics) =
        (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum, q.Report.qm_exec_cycles)
      in
      let rec go i = function
        | qa :: ra, qb :: rb ->
            if key qa = key qb then go (i + 1) (ra, rb)
            else
              let n, r, c, y = key qa and n', r', c', y' = key qb in
              Some
                (Printf.sprintf "query #%d: (%s, %d rows, %016Lx, %d cycles) vs (%s, %d rows, %016Lx, %d cycles)"
                   i n r c y n' r' c' y')
        | [], [] -> None
        | _ -> Some "number of completed queries"
      in
      go 0 (a.Report.r_queries, b.Report.r_queries)

(* The served requests as virtual-time spans: one per request from its
   Report record, with admission wait, compile charge and execution. *)
let request_spans tr (r : Report.t) =
  List.iteri
    (fun i (q : Report.query_metrics) ->
      let request = i + 1 in
      let exec_start = q.Report.qm_start +. q.Report.qm_compile_s in
      let parent =
        Trace.add tr ~request ~clock:Trace.Virtual ~start:q.Report.qm_arrival
          ~stop:q.Report.qm_finish "request"
          ~attrs:
            [
              ("query", Json.Str q.Report.qm_name);
              ("tenant", Json.Int q.Report.qm_tenant);
              ("backend", Json.Str q.Report.qm_backend);
              ("tiers", Json.Arr (List.map (fun t -> Json.Str t) q.Report.qm_tiers));
              ("cache_hit", Json.Bool q.Report.qm_cache_hit);
              ("cycles", Json.Int q.Report.qm_exec_cycles);
              ("quanta_tier0", Json.Int q.Report.qm_quanta_tier0);
              ("quanta_tier1", Json.Int q.Report.qm_quanta_tier1);
            ]
      in
      let child name start stop =
        ignore (Trace.add tr ~parent ~request ~clock:Trace.Virtual ~start ~stop name)
      in
      child "admission.wait" q.Report.qm_arrival q.Report.qm_start;
      child "compile" q.Report.qm_start exec_start;
      child "exec" exec_start q.Report.qm_finish)
    r.Report.r_queries

let serve sv ~seed ~seconds ~tr =
  let setup_s, db = setup (fun () -> build_db ~seed ~sf:sv.sv_sf (sv.sv_tables sv.sv_sf)) in
  let mem = Engine.memory db in
  let live0 = Memory.live_data_bytes mem in
  let reqs = requests sv ~seed in
  let n = List.length reqs in
  (* reps replay the same trace on the same database until the time is
     up; at least two, so determinism can be checked *)
  let rec loop acc deadline =
    if List.length acc >= 2 && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let rep =
        Trace.host tr ~request:0 "serve" (fun _ ->
            let h0 = Htable.stats () in
            let t0 = now () in
            let report =
              try Ok (Server.run_requests db sv.sv_config reqs)
              with e -> Error (Printexc.to_string e)
            in
            let wall_s = now () -. t0 in
            let ht = htable_delta h0 (Htable.stats ()) in
            ( { report; wall_s; live_after = Memory.live_data_bytes mem },
              ("rep", Json.Int (List.length acc + 1)) :: htable_attrs ht ))
      in
      match rep.report with Error _ -> List.rev (rep :: acc) | Ok _ -> loop (rep :: acc) deadline
    end
  in
  let reps = loop [] (now () +. seconds) in
  Printf.printf "  %d requests, %d distinct plans, Poisson %.0f qps, %d tenants\n" n
    (List.length (List.sort_uniq compare (List.map (fun (rq : Server.request) -> rq.Server.rq_name) reqs)))
    sv.sv_qps sv.sv_config.Server.tenants;
  let reports = List.filter_map (fun r -> Result.to_option r.report) reps in
  let raised =
    List.filter_map
      (fun r -> match r.report with Error e -> Some ("serving raised " ^ e) | Ok _ -> None)
      reps
  in
  let problems =
    timed_check (fun () ->
        let refs =
          reference db ~sorted:(sv.sv_config.Server.intra > 1)
            (List.map (fun (rq : Server.request) -> (rq.Server.rq_name, rq.Server.rq_plan)) reqs)
        in
        List.concat_map
          (fun (r : Report.t) ->
            List.map (fun (s : Report.shed) -> "shed " ^ s.Report.sh_name) r.Report.r_sheds
            @ List.filter_map
                (fun (q : Report.query_metrics) ->
                  checked refs ~what:"served" q.Report.qm_name q.Report.qm_rows q.Report.qm_checksum)
                r.Report.r_queries)
          reports)
  in
  let determinism =
    match reports with
    | r1 :: rest ->
        List.filter_map
          (fun (k, r) ->
            Option.map
              (fun d -> Printf.sprintf "determinism: rep %d differs from rep 1 in %s" k d)
              (first_difference r1 r))
          (List.mapi (fun i r -> (i + 2, r)) rest)
    | [] -> []
  in
  let problems = raised @ determinism @ problems in
  let attempted = n * List.length reps in
  let failed = min attempted ((n * List.length raised) + List.length problems) in
  let outcome = { attempted; failed; problems; end_to_end = []; per_layer = [] } in
  match reports with
  | [] -> outcome
  | r1 :: _ ->
      let queries = r1.Report.r_queries in
      let completed = float_of_int (max 1 (List.length queries)) in
      let lats = List.map Report.qm_latency queries in
      let cycles = float_of_int (sumi (List.map (fun q -> q.Report.qm_exec_cycles) queries)) in
      let walls = List.map (fun r -> r.wall_s) reps in
      let peak_code = r1.Report.r_peak_code_bytes in
      let peak_data = r1.Report.r_peak_data_bytes - live0 in
      Printf.printf "  %d reps, host s per rep: %s\n" (List.length reps)
        (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
      let per_layer =
        if not (Trace.enabled tr) then []
        else begin
          request_spans tr r1;
          let serve_s = (List.hd reps).wall_s in
          (* the compile layer on this trace's distinct plans, measured
             from outside the server: untraced, then traced *)
          let seen = Hashtbl.create 256 in
          let plans =
            List.filter_map
              (fun (rq : Server.request) ->
                if Hashtbl.mem seen rq.Server.rq_name then None
                else begin
                  Hashtbl.add seen rq.Server.rq_name ();
                  Some { Spec.q_name = rq.Server.rq_name; q_plan = rq.Server.rq_plan }
                end)
              reqs
          in
          let untraced_ms =
            compile_pass tr db
              (List.mapi
                 (fun i q ->
                   let request = n + i + 1 in
                   (request, q, codegen tr db ~request q))
                 plans)
          in
          let virt name = Trace.select tr ~clock:Trace.Virtual name in
          let span_sum name = sum (List.map Trace.duration (virt name)) in
          let total_latency = span_sum "request" in
          let c = r1.Report.r_cache in
          let q0 = sumi (List.map (fun q -> q.Report.qm_quanta_tier0) queries) in
          let q1 = sumi (List.map (fun q -> q.Report.qm_quanta_tier1) queries) in
          compile_layer tr ~untraced_ms
          @ vm_metrics ~per_be:[] ~host_s:serve_s ~cycles
          @ htable_metrics (List.filter (fun s -> Trace.attr_float s "rep" = 1.0) (Trace.select tr "serve"))
          @ [
              metric "admission.wait_share" "ratio" (safe_div (span_sum "admission.wait") total_latency);
              metric "admission.waited_frac" "ratio"
                (float_of_int
                   (List.length (List.filter (fun s -> Trace.duration s > 0.0) (virt "admission.wait")))
                /. completed);
              metric "admission.queue_peak" "count" (float_of_int r1.Report.r_queue_peak);
              metric "admission.shed" "count" (float_of_int (List.length r1.Report.r_sheds));
              metric "cache.miss_per_request" "ratio" (float_of_int c.Qcomp_server.Lru.misses /. completed);
              metric "cache.evictions" "count" (float_of_int c.Qcomp_server.Lru.evictions);
              metric "cache.exact_hits" "count" (float_of_int r1.Report.r_exact_hits);
              metric "cache.shape_hits" "count" (float_of_int r1.Report.r_shape_hits);
              metric "cache.binds" "count" (float_of_int r1.Report.r_binds);
              metric "cache.stall_share" "ratio" (safe_div (span_sum "compile") total_latency);
              metric "tier.switchovers" "count" (float_of_int r1.Report.r_switchovers);
              metric "tier.multi_upgrade_queries" "count"
                (float_of_int (List.length (List.filter (fun q -> List.length q.Report.qm_tiers > 2) queries)));
              metric "tier.tier0_quanta_frac" "ratio" (safe_div (float_of_int q0) (float_of_int (q0 + q1)));
              metric "morsel.lane_efficiency" "ratio"
                (safe_div (Engine.cycles_to_seconds (int_of_float cycles))
                   (float_of_int sv.sv_config.Server.intra *. span_sum "exec"));
            ]
          @ mem_metrics ~peak_code ~peak_data
              ~growth:
                (match (reps, List.rev reps) with
                | a :: _ :: _, z :: _ ->
                    float_of_int (z.live_after - a.live_after) /. float_of_int (List.length reps - 1)
                | _ -> 0.0)
        end
      in
      {
        outcome with
        end_to_end =
          [
            metric "setup_s" "s" setup_s;
            metric "host_ms_per_query" "ms" (ms (Stats.median walls) /. float_of_int n);
            metric "exec_ms_per_query" "ms" (ms (Engine.cycles_to_seconds (int_of_float cycles)) /. completed);
            metric "latency_p50_s" "s" (Stats.percentile lats 0.50);
            metric "latency_p99_s" "s" (Stats.percentile lats 0.99);
          ];
        per_layer;
      }

(* ---------------- driver ---------------- *)

let workloads =
  [
    ("ds-sweep", ds_sweep);
    ("mix-churn", serve mix_churn);
    ("h-heavy", serve h_heavy);
  ]

(* BENCHMARK.json (read from the working directory, the repository root)
   names every workload and metric; a run whose metric set differs from it
   fails rather than printing a result nobody compares. *)
type spec_metric = { s_name : string; s_unit : string; s_lower : bool; s_bound : float }

let load_benchmark () =
  let file = "BENCHMARK.json" in
  if not (Sys.file_exists file) then failwith "BENCHMARK.json not found in the working directory";
  let j = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  let metrics key =
    List.map
      (fun m ->
        {
          s_name = Json.to_str (Json.member "name" m);
          s_unit = Json.to_str (Json.member "unit" m);
          s_lower = Json.member "better" m = Json.Str "lower";
          s_bound = (match Json.member "bound" m with Json.Null -> 0.0 | b -> Json.to_float b);
        })
      (Json.to_list (Json.member key j))
  in
  let names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j)) in
  (names, metrics "end_to_end", metrics "per_layer")

let check_metric_set ~what spec (emitted : metric list) =
  let have = List.map (fun m -> (m.name, m.unit_)) emitted in
  let want = List.map (fun s -> (s.s_name, s.s_unit)) spec in
  let missing = List.filter (fun k -> not (List.mem k have)) want in
  let extra = List.filter (fun k -> not (List.mem k want)) have in
  let show ks = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") ks) in
  if missing <> [] || extra <> [] || List.length have <> List.length want then
    failwith
      (Printf.sprintf "%s metrics differ from BENCHMARK.json: missing {%s}, unlisted {%s}" what
         (show missing) (show extra))

let results_dir = Filename.concat "bench" (Filename.concat "e2e" "results")

let run_workload ~name ~seed ~seconds ~trace ~record (_, e2e_spec, layer_spec) =
  let f = List.assoc name workloads in
  Printf.printf "workload %s  seed %Ld  seconds %g  trace %d\n%!" name seed seconds
    (if trace then 1 else 0);
  let tr = Trace.create ~enabled:trace in
  let o = f ~seed ~seconds ~tr in
  let print_metrics title ms =
    Printf.printf "  %s:\n" title;
    List.iter (fun m -> Printf.printf "    %-44s %18.9g %s\n" m.name m.value m.unit_) ms
  in
  print_metrics "end-to-end" o.end_to_end;
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "  FAIL %s\n" p)
    o.problems;
  if List.length o.problems > 20 then
    Printf.printf "  ... %d failures in all\n" (List.length o.problems);
  let metrics =
    if not trace then o.end_to_end
    else begin
      print_metrics "per-layer (traced)" o.per_layer;
      Printf.printf "  span self time (count, total s, self s):\n";
      List.iter
        (fun ((n, clock), (count, total, self)) ->
          Printf.printf "    %-18s %-7s %7d %12.6f %12.6f\n" n
            (match clock with Trace.Host -> "host" | Trace.Virtual -> "virtual")
            count total self)
        (Trace.self_times tr);
      List.iter
        (fun m ->
          if m.name = "trace.compile_overhead_frac" then
            Printf.printf "  tracing overhead on compile time: %+.1f%%\n" (100.0 *. m.value))
        o.per_layer;
      if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
      let file = Filename.concat results_dir (Printf.sprintf "trace-%s-seed%Ld.jsonl" name seed) in
      Trace.write tr file;
      Printf.printf "  spans written to %s\n" file;
      o.per_layer
    end
  in
  (* a failed run has no complete metric set to compare *)
  if o.problems = [] then
    check_metric_set ~what:(if trace then "per-layer" else "end-to-end")
      (if trace then layer_spec else e2e_spec)
      metrics;
  let metrics_json =
    Json.Obj
      (List.map
         (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
         metrics)
  in
  (match record with
  | Some file when o.problems = [] ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 file (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.Str name);
                    ("seed", Json.Str (Int64.to_string seed));
                    ("trace", Json.Bool trace);
                    ("metrics", metrics_json);
                  ])
            ^ "\n"))
  | _ -> ());
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.problems = []));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", metrics_json);
          ]));
  o.problems = []

(* compare PARENT.jsonl CHANGE.jsonl: every end-to-end metric of every
   workload, parent runs against change runs, judged by its bound. *)
let compare_runs parent change =
  let _, e2e_spec, _ = load_benchmark () in
  let read file =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
    |> List.filter (fun r -> Json.member "trace" r <> Json.Bool true)
  in
  let a = read parent and b = read change in
  let values runs w m =
    List.filter_map
      (fun r ->
        if Json.member "workload" r <> Json.Str w then None
        else
          match Json.member m (Json.member "metrics" r) with
          | Json.Null -> None
          | v -> Some (Json.to_float (Json.member "value" v)))
      runs
  in
  let ws =
    List.sort_uniq compare (List.map (fun r -> Json.to_str (Json.member "workload" r)) (a @ b))
  in
  let worse = ref false in
  Printf.printf "%-10s %-20s %6s %5s %14s %14s %8s %7s  %s\n" "workload" "metric" "bound" "runs"
    "parent median" "change median" "change" "spread" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match (values a w s.s_name, values b w s.s_name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let v = Stats.verdict ~lower_better:s.s_lower ~bound:s.s_bound va vb in
              if v = Stats.Worse then worse := true;
              let ma = Stats.median va and mb = Stats.median vb in
              let spread xs = if List.length xs >= 2 then Stats.spread xs else 0.0 in
              Printf.printf "%-10s %-20s %5.0f%% %2d/%-2d %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n" w s.s_name
                (100.0 *. s.s_bound) (List.length va) (List.length vb) ma mb
                (100.0 *. safe_div (mb -. ma) ma)
                (100.0 *. Float.max (spread va) (spread vb))
                (Stats.verdict_name v))
        e2e_spec)
    ws;
  not !worse

let usage () =
  prerr_endline
    "usage: main.exe [--workload ds-sweep|mix-churn|h-heavy] [--seed N] [--seconds S] [--trace 0|1] \
     [--record FILE]\n       main.exe compare PARENT.jsonl CHANGE.jsonl";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (if compare_runs a b then 0 else 1)
  | args ->
      let workload = ref None and seed = ref 42L and seconds = ref 15.0 in
      let trace = ref false and record = ref None in
      let rec parse = function
        | "--workload" :: w :: rest -> workload := Some w; parse rest
        | "--seed" :: n :: rest ->
            (match Int64.of_string_opt n with Some s -> seed := s | None -> usage ());
            parse rest
        | "--seconds" :: s :: rest ->
            (match float_of_string_opt s with Some x when x >= 0.0 -> seconds := x | _ -> usage ());
            parse rest
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
        | "--record" :: f :: rest -> record := Some f; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      let spec =
        try load_benchmark ()
        with Failure m | Json.Parse_error m | Sys_error m ->
          prerr_endline ("e2e: " ^ m);
          exit 2
      in
      let listed, _, _ = spec in
      let names =
        match !workload with
        | Some w when List.mem_assoc w workloads && List.mem w listed -> [ w ]
        | Some w ->
            prerr_endline ("e2e: unknown workload " ^ w);
            exit 2
        | None -> List.map fst workloads
      in
      let ok =
        List.for_all Fun.id
          (List.map
             (fun name ->
               try run_workload ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~record:!record spec
               with Failure m ->
                 prerr_endline ("e2e: " ^ m);
                 exit 2)
             names)
      in
      exit (if ok then 0 else 1)
