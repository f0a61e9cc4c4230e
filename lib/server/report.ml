(** Serving-run reports: per-query metrics and the aggregated summary.

    The one place report shape and assembly live. Both serving drivers —
    the deterministic discrete-event scheduler ({!Server.run}) and the
    domain-parallel pool ({!Pool.run_requests}) — produce their per-query
    {!query_metrics} in completion order and fold them through
    {!assemble}, so the two drivers can never drift apart in what they
    measure or how latency percentiles, throughput, cache and memory
    accounting are computed. *)

open Qcomp_engine

type query_metrics = {
  qm_name : string;
  qm_fp : int64;
  qm_backend : string;  (** back-end that finished the query *)
  qm_arrival : float;
  qm_start : float;
  qm_finish : float;
  qm_compile_s : float;  (** foreground compile charged on the worker *)
  qm_cache_hit : bool;  (** strong-tier module came from the cache *)
  qm_switch_s : float option;  (** time of the first hot-swap since start *)
  qm_quanta_tier0 : int;
  qm_quanta_tier1 : int;
  qm_tiers : string list;
      (** back-ends the query executed on, in order (length > 2 means the
          controller upgraded more than once) *)
  qm_exec_cycles : int;
  qm_rows : int;
  qm_checksum : int64;
  qm_tenant : int;  (** traffic-generator tenant tag (0 single-tenant) *)
  qm_first_s : float;
      (** enqueue -> first-row latency: arrival to the end of the quantum
          that produced the first morsel of output *)
}

let qm_latency q = q.qm_finish -. q.qm_arrival

(** A query the admission queue rejected at its cap: name, tenant and
    arrival time — enough to account for it and (under the deterministic
    driver) to assert the exact shed set. *)
type shed = { sh_name : string; sh_tenant : int; sh_arrival : float }

type t = {
  r_mode : string;
  r_queries : query_metrics list;  (** completion order *)
  r_makespan : float;  (** time of the last completion *)
  r_total_latency : float;  (** sum of per-query latencies *)
  r_mean_latency : float;
  r_p50_latency : float;
  r_p95_latency : float;
  r_p99_latency : float;
  r_max_latency : float;
  r_p50_first_row : float;  (** enqueue -> first-row percentiles *)
  r_p95_first_row : float;
  r_p99_first_row : float;
  r_compile_stall_s : float;
      (** total foreground compile seconds charged on workers — time
          queries stalled waiting on a compile instead of executing *)
  r_throughput : float;  (** completed queries per second *)
  r_switchovers : int;
  r_sheds : shed list;  (** rejected at the admission cap, arrival order *)
  r_queue_peak : int;  (** admission-queue occupancy high-water mark *)
  r_cache : Lru.stats;
  r_bytes_freed : int;  (** code bytes returned to the region allocator *)
  r_live_code_bytes : int;  (** resident generated code at end of run *)
  r_peak_code_bytes : int;  (** high-water mark of resident code *)
  r_live_data_bytes : int;
      (** linear-memory data bytes still allocated at end of run (tables,
          stacks, module GOTs — per-query blocks must all be recycled) *)
  r_peak_data_bytes : int;  (** high-water mark of allocated data bytes *)
  r_freed_data_bytes : int;  (** cumulative data bytes recycled *)
  r_shape_hits : int;
      (** parameterized lookups that found the shape's artifact cached but
          had to bind a new literal vector *)
  r_exact_hits : int;
      (** parameterized lookups that found an already-bound instance for the
          exact literal vector *)
  r_binds : int;  (** parameter-vector bind (re-link) operations *)
  r_bind_s : float;  (** modelled seconds spent binding parameter vectors ([r_binds] x {!Qcomp_engine.Costmodel.bind_seconds}, deterministic like every other report duration) *)
}

(* Nearest-rank percentile over an ascending array. *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) idx))

let assemble db cache ~mode ~makespan ?(sheds = []) ?(queue_peak = 0) queries =
  let lats = Array.of_list (List.map qm_latency queries) in
  Array.sort compare lats;
  let firsts = Array.of_list (List.map (fun q -> q.qm_first_s) queries) in
  Array.sort compare firsts;
  let n = List.length queries in
  let total_latency = Array.fold_left ( +. ) 0.0 lats in
  {
    r_mode = mode;
    r_queries = queries;
    r_makespan = makespan;
    r_total_latency = total_latency;
    r_mean_latency = (if n > 0 then total_latency /. float_of_int n else 0.0);
    r_p50_latency = percentile lats 0.50;
    r_p95_latency = percentile lats 0.95;
    r_p99_latency = percentile lats 0.99;
    r_max_latency =
      (if Array.length lats > 0 then lats.(Array.length lats - 1) else 0.0);
    r_p50_first_row = percentile firsts 0.50;
    r_p95_first_row = percentile firsts 0.95;
    r_p99_first_row = percentile firsts 0.99;
    r_compile_stall_s =
      List.fold_left (fun acc q -> acc +. q.qm_compile_s) 0.0 queries;
    r_throughput = (if makespan > 0.0 then float_of_int n /. makespan else 0.0);
    r_switchovers =
      List.length (List.filter (fun q -> q.qm_switch_s <> None) queries);
    r_sheds = sheds;
    r_queue_peak = queue_peak;
    r_cache = Code_cache.stats cache;
    r_bytes_freed = (Code_cache.mem_stats cache).Code_cache.ms_bytes_freed;
    r_live_code_bytes = Qcomp_vm.Emu.live_code_bytes db.Engine.emu;
    r_peak_code_bytes = Qcomp_vm.Emu.peak_code_bytes db.Engine.emu;
    r_live_data_bytes = Qcomp_vm.Memory.live_data_bytes (Engine.memory db);
    r_peak_data_bytes = Qcomp_vm.Memory.peak_data_bytes (Engine.memory db);
    r_freed_data_bytes = Qcomp_vm.Memory.freed_data_bytes (Engine.memory db);
    r_shape_hits = (Code_cache.param_stats cache).Code_cache.ps_shape_hits;
    r_exact_hits = (Code_cache.param_stats cache).Code_cache.ps_exact_hits;
    r_binds = (Code_cache.param_stats cache).Code_cache.ps_binds;
    (* modelled, not ps_bind_host_s: report durations must be
       byte-identical across same-seed runs *)
    r_bind_s =
      float_of_int (Code_cache.param_stats cache).Code_cache.ps_binds
      *. Costmodel.bind_seconds;
  }

let pp_query fmt q =
  Format.fprintf fmt
    "%-8s %-12s lat %9.6fs  compile %9.6fs  %s%s%s  rows %5d  cycles %9d  sum %016Lx"
    q.qm_name q.qm_backend (qm_latency q) q.qm_compile_s
    (if q.qm_cache_hit then "hit " else "miss")
    (match q.qm_switch_s with
    | Some s -> Format.asprintf "  swap@%.6fs (%d+%d quanta)" s q.qm_quanta_tier0 q.qm_quanta_tier1
    | None -> "")
    (if List.length q.qm_tiers > 1 then
       "  tiers " ^ String.concat "->" q.qm_tiers
     else "")
    q.qm_rows q.qm_exec_cycles q.qm_checksum

let pp ?(per_query = false) fmt r =
  Format.fprintf fmt "mode %-18s queries %d@." r.r_mode (List.length r.r_queries);
  if per_query then
    List.iter (fun q -> Format.fprintf fmt "  %a@." pp_query q) r.r_queries;
  Format.fprintf fmt
    "  makespan %.6fs  total-latency %.6fs  mean %.6fs  p50 %.6fs  p95 %.6fs  max %.6fs@."
    r.r_makespan r.r_total_latency r.r_mean_latency r.r_p50_latency
    r.r_p95_latency r.r_max_latency;
  Format.fprintf fmt "  throughput %.1f q/s  switchovers %d@." r.r_throughput
    r.r_switchovers;
  Format.fprintf fmt
    "  tail: p99 %.6fs  first-row p50 %.6fs  p95 %.6fs  p99 %.6fs  compile-stall %.6fs@."
    r.r_p99_latency r.r_p50_first_row r.r_p95_first_row r.r_p99_first_row
    r.r_compile_stall_s;
  if r.r_sheds <> [] || r.r_queue_peak > 0 then
    Format.fprintf fmt "  admission: shed %d  queue-peak %d@."
      (List.length r.r_sheds) r.r_queue_peak;
  let s = r.r_cache in
  Format.fprintf fmt
    "  cache: hits %d  misses %d  hit-rate %.1f%%  entries %d  evictions %d  bytes %d (evicted %d)@."
    s.Lru.hits s.Lru.misses
    (if s.Lru.hits + s.Lru.misses > 0 then
       100.0 *. float_of_int s.Lru.hits /. float_of_int (s.Lru.hits + s.Lru.misses)
     else 0.0)
    s.Lru.entries s.Lru.evictions s.Lru.bytes s.Lru.bytes_evicted;
  Format.fprintf fmt "  code-mem: live %d  peak %d  freed %d@."
    r.r_live_code_bytes r.r_peak_code_bytes r.r_bytes_freed;
  Format.fprintf fmt "  data-mem: live %d  peak %d  freed %d@."
    r.r_live_data_bytes r.r_peak_data_bytes r.r_freed_data_bytes;
  if r.r_shape_hits + r.r_exact_hits + r.r_binds > 0 then
    Format.fprintf fmt
      "  param: shape-hits %d  exact-hits %d  binds %d  bind-time %.6fs@."
      r.r_shape_hits r.r_exact_hits r.r_binds r.r_bind_s
