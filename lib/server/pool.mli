(** Domain-based parallel serving: real OS-thread workers over one shared
    database, code cache and emulated machine.

    The production-shaped counterpart of the discrete-event scheduler in
    {!Server} (the deterministic test double); both drive the same
    per-query {!Lifecycle}. An open-loop feeder domain releases requests at
    their arrival stamps into a bounded multi-tenant {!Admission} queue
    (arrivals beyond the cap are shed and counted); [config.workers]
    worker domains block on a condition variable while the queue is empty
    and execute queries concurrently, each through its own
    {!Qcomp_engine.Engine.domain_view}; compiled code, the module cache and
    the runtime dispatch table are shared and lock-guarded. Per-query rows
    and checksums are deterministic (independent of interleaving); timing
    metrics — and shed decisions under a cap — are wall-clock. *)

(** [run_requests ?cache db config requests] serves the timed [requests]
    open-loop on [config.workers] worker domains (plus
    {!Lifecycle.Config.compile_slots} compile domains in Tiered mode): a
    feeder domain admits (or sheds, at [config.admission_cap]) each
    request at its arrival stamp, idle workers block until work arrives.
    Raises [Invalid_argument] on a bad config
    ({!Lifecycle.Config.validate_config}). Returns the full report —
    per-query metrics in completion order, sheds in arrival order, queue
    peak, tail latencies — assembled by the same {!Report.assemble} the
    discrete-event driver uses (timing metrics here are wall-clock). The
    first exception raised by any query is re-raised after all domains
    join; completed queries keep their metrics and every pin and claim is
    released either way. *)
val run_requests :
  ?cache:Code_cache.t ->
  Qcomp_engine.Engine.db ->
  Lifecycle.Config.config ->
  Lifecycle.Config.request list ->
  Report.t
