(** The per-query serving lifecycle, shared by both drivers.

    One definition of what happens to a query between admission and its
    metrics: the mode dispatch ([Static], [Cached], [Tiered]), pinned
    foreground lookups, the resident-rung probe, the prior's pick priced
    by {!Qcomp_engine.Engine.cheapest_rung} and compiled in the background
    (deduplicated per key), the morsel boundary (apply the parked swap,
    re-price the ladder when [reopt] is set, run the next quantum), bind
    charging, the release of claims and pins, and the
    {!Report.query_metrics} record. The
    discrete-event scheduler ({!Server}) and the domain pool ({!Pool})
    differ only in the clock, the locking and where compiles run, which
    they pass in as a {!driver}. *)

(** Serving configuration and request traces, declared once for both
    drivers ({!Server} re-exports them). *)
module Config : sig
  type mode =
    | Static of Qcomp_backend.Backend.t
    | Cached
    | Tiered

  val mode_name : mode -> string

  type config = {
    workers : int;
        (** execution workers: concurrent queries on the event driver,
            worker domains on the pool *)
    compile_slots : int;  (** background compile pool size (Tiered) *)
    morsel : int;  (** rows per execution quantum *)
    cache_capacity : int;  (** module-cache entries *)
    mode : mode;
    reopt : bool;
        (** Tiered only: re-price the ladder from observed cycles-per-row
            at every morsel boundary (including second upgrades); without
            it a query keeps the prior's pick *)
    paramize : bool;
        (** normalize incoming plans into (shape, literal vector) so the code
            cache is keyed per shape rather than per query; [Static] mode
            always serves exact plans regardless *)
    mean_gap_s : float;  (** mean inter-arrival gap; 0 = all arrive at t=0 *)
    seed : int64;  (** drives the arrival process *)
    admission_cap : int option;
        (** bound on admission-queue occupancy; arrivals beyond it are shed
            (rejected, counted, reported). [None] = unbounded *)
    tenants : int;  (** tenant FIFOs in the admission queue (fair dequeue) *)
    cache_shards : int;
        (** hash shards of the code cache when the pool creates it; the
            event driver always serves from the single-shard layout *)
    intra : int;
        (** intra-query lanes: parallelizable pipeline bodies fan each
            quantum's morsels out over this many execution lanes
            ({!Morsel_sched}). The event driver models them (virtual time
            advances by the max over lanes); 1 = serial bodies *)
  }

  (** Tiered without reopt, 4 workers, 2 compile slots, 512-row
      morsels, unbounded admission, 1 tenant, 1 cache shard, serial
      bodies (intra 1). *)
  val default_config : config

  (** Raise [Invalid_argument] naming the field unless [workers],
      [compile_slots], [morsel], [cache_capacity], [tenants],
      [cache_shards], [intra] and (when given) [admission_cap] are all
      positive; [driver] prefixes the message. Both drivers validate with
      this, so misconfiguration fails the same way everywhere instead of
      being silently clamped. *)
  val validate_config : driver:string -> config -> unit

  (** Split an incoming plan into its shape (eligible literals replaced by
      {!Qcomp_plan.Expr.Param} holes) and the extracted literal vector in
      the back-ends' binding representation. [Static] mode and
      [paramize = false] keep the plan exact ([([||])] vector); a plan with
      nothing eligible is its own shape with an empty vector. *)
  val normalize_query :
    config ->
    Qcomp_plan.Algebra.t ->
    Qcomp_plan.Algebra.t * Qcomp_backend.Artifact.param_value array

  (** One timed request of an open-loop workload: release
      [rq_name]/[rq_plan] at [rq_arrival] seconds after run start, tagged
      with the submitting tenant. Both drivers consume the same request
      list, so a traffic trace generated once replays identically against
      the deterministic scheduler and the wall-clock pool. *)
  type request = {
    rq_name : string;
    rq_plan : Qcomp_plan.Algebra.t;
    rq_arrival : float;  (** seconds after run start *)
    rq_tenant : int;
  }

  (** The closed-list arrival process as a request list: exponential gaps
      with mean [config.mean_gap_s] drawn from [config.seed] (all at t=0
      when the gap is zero), single tenant. *)
  val requests_of_stream :
    config -> (string * Qcomp_plan.Algebra.t) list -> request list
end

(** What a driver supplies. [now] is seconds since run start. [after d k]
    runs [k] once [d] seconds of modelled work have passed: a virtual-time
    event on the scheduler, at once on the pool (whose compiles and
    quanta already took real time). [locked f] runs [f] under the
    driver's lock (the identity when single-threaded). [submit compile
    publish] hands a background compile to the driver's compile pool, which
    runs [compile] against its own database view and calls [publish] with
    the entry once it may become visible; [submit] is called with the
    lock held, [publish] without. *)
type driver = {
  now : unit -> float;
  after : float -> (unit -> unit) -> unit;
  locked : 'a. (unit -> 'a) -> 'a;
  submit :
    (Qcomp_engine.Engine.db -> Code_cache.entry) -> (Code_cache.entry -> unit) -> unit;
}

(** One admitted query's serving state. *)
type query

(** One serving run: shared cache, config, driver, the in-flight
    background compiles, and the completed and shed queries. *)
type t

val create :
  db:Qcomp_engine.Engine.db -> cache:Code_cache.t -> Config.config -> driver -> t

(** Normalize [request] into a query and offer it to [admission]; a
    refused query is recorded as shed. Call with the driver lock held. *)
val offer : t -> query Admission.t -> Config.request -> bool

(** [serve t ~db ?sched ?on_done q] runs [q] from its first tier to its
    metrics on worker database view [db] (intra-query lanes from [sched]),
    then calls [on_done]. Every delay goes through the driver's [after],
    so on the scheduler this returns after scheduling the first event. *)
val serve :
  t ->
  db:Qcomp_engine.Engine.db ->
  ?sched:Morsel_sched.t ->
  ?on_done:(unit -> unit) ->
  query ->
  unit

(** Mark [q] done and release what it holds: claims before pins, then
    its execution's memory. Idempotent; {!serve} calls it on completion,
    a driver calls it when {!serve} raised. Takes the driver lock. *)
val release : t -> query -> unit

(** The run's report, assembled by {!Report.assemble} from the queries
    completed so far (completion order) and the sheds (arrival order).
    [makespan] defaults to the latest completion time. *)
val report : ?makespan:float -> t -> queue_peak:int -> Report.t
