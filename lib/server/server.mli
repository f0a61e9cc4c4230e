(** Deterministic multi-worker query serving with tiered execution.

    Queries arrive on a seeded arrival process (or an arbitrary timed
    request trace), pass the bounded multi-tenant admission queue —
    arrivals beyond the cap are shed, deterministically, since occupancy
    is a pure function of the virtual-time event history — wait for an
    execution worker, and run morsel-by-morsel. Policies: [Static] (fixed
    back-end, full compile charge per query), [Cached] (adaptive back-end
    fronted by the fingerprint-keyed code cache), [Tiered] (start on
    interpreter bytecode, hot-swap to the adaptively-chosen back-end
    compiled on a background pool). All durations are deterministic, so
    same-seed runs produce byte-identical reports, shed sets included.

    The per-query lifecycle is {!Lifecycle}'s; this module is its
    discrete-event driver and the entry point to both drivers. *)

(** The serving configuration and request types ({!Lifecycle.Config}). *)
include module type of struct
  include Lifecycle.Config
end

(** Alias of the one canonical metric record, {!Report.query_metrics};
    read the fields through {!Report}. *)
type query_metrics = Report.query_metrics

val qm_latency : query_metrics -> float

(** Alias of the one canonical summary record, {!Report.t}. *)
type report = Report.t

(** Serve a timed open-loop request trace (e.g. from
    {!Qcomp_workloads.Trafficgen}): each request is offered to the
    admission queue at its arrival stamp, shed at the cap, dequeued
    tenant-fair. [cache] persists across calls when supplied (a warm
    serving process); otherwise each run starts cold with
    [config.cache_capacity] entries.

    By default this is deterministic discrete-event serving — same trace,
    same config, byte-identical report including the shed set. With
    [~parallel:true], open-loop wall-clock serving on [config.workers]
    domains ({!Pool.run_requests}): per-query rows and checksums are
    identical to the sequential run, but every timing metric is
    wall-clock and scheduling-dependent. *)
val run_requests :
  ?cache:Code_cache.t ->
  ?parallel:bool ->
  Qcomp_engine.Engine.db ->
  config ->
  request list ->
  report

(** [run ?cache ?parallel db config stream] serves the (name, plan)
    [stream] in arrival order: {!run_requests} over
    [requests_of_stream config stream]. *)
val run :
  ?cache:Code_cache.t ->
  ?parallel:bool ->
  Qcomp_engine.Engine.db ->
  config ->
  (string * Qcomp_plan.Algebra.t) list ->
  report

val pp_query : Format.formatter -> query_metrics -> unit
val pp_report : ?per_query:bool -> Format.formatter -> report -> unit

(** Deterministic repeated-query stream: [n] seeded draws over [queries],
    biased towards a hot subset so a cache has something to hit. *)
val make_stream :
  seed:int64 -> n:int -> (string * Qcomp_plan.Algebra.t) list -> (string * Qcomp_plan.Algebra.t) list
