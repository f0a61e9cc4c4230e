(** Serving-run reports: per-query metrics and the aggregated summary.

    Both serving drivers — the deterministic discrete-event scheduler
    ({!Server.run}) and the domain-parallel pool
    ({!Pool.run_requests}) — fold their completion-order metrics, built
    by the shared {!Lifecycle}, through {!assemble}, so the two can never
    drift apart in what they measure or how latency percentiles,
    throughput, cache and memory accounting are computed. *)

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

val qm_latency : query_metrics -> float

(** A query the admission queue rejected at its cap. *)
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

(** Fold completion-order metrics plus end-of-run cache and memory state
    into the summary. [mode] is the display name of the serving policy;
    [sheds] (arrival order) and [queue_peak] come from the driver's
    admission queue. *)
val assemble :
  Qcomp_engine.Engine.db ->
  Code_cache.t ->
  mode:string ->
  makespan:float ->
  ?sheds:shed list ->
  ?queue_peak:int ->
  query_metrics list ->
  t

val pp_query : Format.formatter -> query_metrics -> unit
val pp : ?per_query:bool -> Format.formatter -> t -> unit
