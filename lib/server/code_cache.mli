(** Compiled-code cache: shape fingerprint -> relocatable compiled artifact.

    An unbounded codegen memo keyed by [(fingerprint, target)] — shared
    across back-ends so tiers can hot-swap over one state layout — plus a
    bounded LRU keyed by [(fingerprint, backend, target)] holding each
    back-end's relocatable {!Qcomp_backend.Artifact.t} together with its
    lazily linked live modules, with hit/miss/eviction/byte stats.

    With parameterized-plan specialization the cached unit is a {e shape}:
    a plan whose eligible literals were replaced by parameter holes
    ({!Qcomp_plan.Paramize}). The artifact is compiled once per shape with
    holes unbound; every literal variant is served by a cheap bind-link
    ({!force} with a parameter vector). Entries keep a short MRU list of
    bound instances — repeated vectors are exact hits, new vectors shape
    hits — counted in {!param_stats}. Instances a query is executing can
    be {e claimed} ({!force} [~claim:true] .. {!release}): a claimed
    instance survives the MRU-overflow trim, so literal churn by other
    queries never disposes a module mid-execution.

    Because the cached unit is relocatable and unbound, a cache can be
    {!save}d to a snapshot file and {!load}ed by a freshly started server
    against a database with the same deterministic layout: warm queries
    then pay a microsecond re-link on first hit instead of back-end
    compile seconds, and one snapshot record serves every literal variant
    of its shape.

    Eviction {e reclaims} code memory: each bound instance's regions go
    back to the emulator's region allocator via
    {!Qcomp_backend.Backend.dispose}; never-linked snapshot entries own no
    code memory and free nothing. Entries held by in-flight queries must
    be {!pin}ned; a pinned entry that gets evicted is disposed only when
    its last {!unpin} arrives, so running code is never freed.

    Thread-safe and {e hash-sharded}: entries are distributed over
    independent LRU shards (keyed by fingerprint and back-end), each
    behind its own mutex, so worker domains hitting different plans never
    contend on one global lock. [{!create} ~capacity] is the single-shard
    configuration — exactly the previous behavior, including snapshot
    byte layout — and the only one the deterministic discrete-event
    driver uses; {!create_sharded} spreads the capacity over several
    shards for the parallel pool. Stats aggregate across shards on read.
    Concurrent misses on one key are deduplicated: the first domain
    compiles, racers wait on the shard's condition variable and reuse the
    result ({!get_or_compile}). Compilation runs outside the shard mutex
    (independent plans compile concurrently) under the emulator's
    code-layout lock; a shard mutex is always taken before the layout
    lock, never after. *)

type key = {
  ck_fp : int64;  (** canonical plan (shape) fingerprint *)
  ck_backend : string;
  ck_target : string;
}

(** One parameter binding of an entry's shape: an immutable linked module
    whose parameter holes hold exactly [b_params]. Instances are immutable
    by design — patching a shared module's holes in place would race with
    a query mid-execution on the same module. [b_refs] counts in-flight
    claims ({!force} [~claim:true]); the MRU trim never disposes an
    instance with live references. *)
type bound = {
  b_params : Qcomp_backend.Artifact.param_value array;
  b_cm : Qcomp_backend.Backend.compiled_module;
  b_dispose : unit -> unit;
  mutable b_refs : int;
}

(** What a cache entry instantiates its bound modules from. *)
type code =
  | Relocatable of Qcomp_backend.Artifact.t
      (** the back-end's artifact, parameter holes unbound: every instance
          is a link, and the entry can be snapshot *)
  | Host of Qcomp_backend.Backend.host
      (** an artifact-less back-end (interpreter): every instance
          re-translates for its parameter vector; never snapshot *)

type entry = {
  ce_name : string;  (** query name (for re-codegen after a {!load}) *)
  ce_key : key;  (** the entry's home key — locates its shard *)
  ce_plan : Qcomp_plan.Algebra.t;
      (** the {e shape}: for parameterized queries, eligible literals have
          been replaced by [Expr.Param] holes ({!Qcomp_plan.Paramize}) *)
  ce_fp : int64;  (** canonical shape fingerprint (= key's [ck_fp]) *)
  ce_code : code;
  ce_consts : (string * int * int) list;
      (** (string, SSO struct address, body address or 0) literals baked
          into the artifact as immediates *)
  ce_db_fp : int64;  (** {!Engine.layout_fingerprint} at compile time *)
  mutable ce_cq : Qcomp_codegen.Codegen.compiled option;
      (** shape codegen result, shared by every bound instance; re-derived
          through the plan memo on first {!force} after a {!load} *)
  mutable ce_bound : bound list;
      (** linked instances, most recently used first; one per distinct
          parameter vector (a single [[||]]-keyed instance for
          non-parameterized plans) *)
  mutable ce_fresh : bool;
      (** entry was just created by {!compile_uncached} and its initial
          instance not yet claimed — the creator's first {!force} is not a
          parameter-cache hit *)
  ce_compile_s : float;  (** modelled (simulated) compile seconds *)
  ce_code_bytes : int;  (** code bytes of one bound instance *)
  ce_pins : int ref;  (** in-flight queries holding this entry *)
  ce_evicted : bool ref;  (** evicted while pinned; free on last unpin *)
}

(** Parameter-cache counters, reported next to the LRU hit/miss stats.
    Only parameterized lookups (non-empty vectors) count here. *)
type param_stats = {
  ps_shape_hits : int;
      (** {!force} found the shape but not the vector: artifact re-linked
          with fresh holes — the compile was skipped, only a bind paid *)
  ps_exact_hits : int;
      (** {!force} found a live instance for the exact vector: no work *)
  ps_binds : int;  (** parameter bind-links performed (incl. initial) *)
  ps_bind_host_s : float;  (** host seconds spent in bind-links *)
}

type t

(** [create ~capacity] bounds the module LRU to [capacity] entries over a
    single shard — the deterministic configuration. *)
val create : capacity:int -> t

(** [create_sharded ~capacity ~shards] distributes [capacity] entries
    (ceil-divided, so the aggregate bound never shrinks) over [shards]
    hash shards, each with its own lock — for the parallel pool. Raises
    [Invalid_argument] unless both are positive. *)
val create_sharded : capacity:int -> shards:int -> t

val shard_count : t -> int

(** Cache key of [plan] compiled by [backend] for [db]'s target. *)
val key : Qcomp_engine.Engine.db -> backend:Qcomp_backend.Backend.t -> Qcomp_plan.Algebra.t -> key

(** LRU lookup (promotes, counts hit/miss). *)
val find : t -> key -> entry option

(** LRU lookup that touches neither recency nor the hit/miss counters —
    for Static mode (whose semantics are "no cache") and for tier-upgrade
    probes that must not pollute the serving hit-rate. *)
val find_nostat : t -> key -> entry option

(** The live (codegen result, module) pair for an entry bound to [params],
    plus whether this call created the instance (a {e fresh} bind the
    caller should charge {!Qcomp_engine.Costmodel.bind_seconds} for). A
    matching bound instance is reused and MRU-promoted; otherwise the artifact is
    re-linked (or the back-end re-translates, for interpreter entries)
    with [params] in its holes. Entries created by {!compile_uncached}
    are born with their submitter's instance; {!load}ed entries pay a
    microsecond re-link — never a back-end compile — on the first call.
    [~claim:true] takes a reference on the returned instance so the
    MRU-overflow trim cannot dispose it while the query executes; drop it
    with {!release}. *)
val force :
  t ->
  Qcomp_engine.Engine.db ->
  ?params:Qcomp_backend.Artifact.param_value array ->
  ?claim:bool ->
  entry ->
  Qcomp_codegen.Codegen.compiled * Qcomp_backend.Backend.compiled_module * bool

(** Drop the claim {!force} [~claim:true] took on the instance whose
    module is [cm], then re-apply the MRU-overflow trim (disposing the
    instance if it outlived the cap only because of the claim). Ignored
    for modules already disposed with their evicted entry. *)
val release : t -> entry -> Qcomp_backend.Backend.compiled_module -> unit

(** Codegen once per (fingerprint, target), memoized. *)
val plan_ir :
  t ->
  Qcomp_engine.Engine.db ->
  fp:int64 ->
  name:string ->
  Qcomp_plan.Algebra.t ->
  Qcomp_codegen.Codegen.compiled

(** Compile without touching the LRU (for background compilations that
    become visible only at their simulated completion event). When the
    back-end supports relocatable output, the entry retains the artifact
    so {!save} can snapshot it. [params] binds the submitter's literal
    vector into the entry's initial instance. Must not be called with a
    shard mutex held. *)
val compile_uncached :
  t ->
  Qcomp_engine.Engine.db ->
  backend:Qcomp_backend.Backend.t ->
  ?params:Qcomp_backend.Artifact.param_value array ->
  name:string ->
  Qcomp_plan.Algebra.t ->
  entry

val insert : t -> key -> entry -> unit

(** [(entry, hit)] — compiles and inserts on miss. Concurrent misses on
    one key are deduplicated through a per-shard in-flight table: the
    first domain compiles, racers block on the shard's condition variable
    and return the finished entry as a hit (counted in
    [ms_dedup_waits] — no redundant back-end compile is ever run).
    [~stats:false] keeps the lookup out of the hit/miss counters;
    [~pin:true] pins the returned entry atomically with the
    lookup/insert, so an eviction cannot free it before the caller runs
    it. *)
val get_or_compile :
  t ->
  Qcomp_engine.Engine.db ->
  backend:Qcomp_backend.Backend.t ->
  ?params:Qcomp_backend.Artifact.param_value array ->
  ?stats:bool ->
  ?pin:bool ->
  name:string ->
  Qcomp_plan.Algebra.t ->
  entry * bool

(** Pin an entry against disposal while a query holds it. Every pin must
    be matched by an {!unpin}. *)
val pin : t -> entry -> unit

(** Drop one pin; if the entry was evicted while pinned and this was the
    last pin, its code regions are released now. An unpin without a
    matching pin is clamped at zero (never negative), counted in
    [ms_pin_underflows], and logged on first occurrence. *)
val unpin : t -> entry -> unit

(** Aggregated over all shards. *)
val stats : t -> Lru.stats

(** The run's parameter-cache counters (aggregated over all shards). *)
val param_stats : t -> param_stats

(** Sum of pins across live entries — zero once a server run quiesces. *)
val live_pins : t -> int

type mem_stats = {
  ms_bytes_freed : int;  (** code bytes returned to the region allocator *)
  ms_max_entry_bytes : int;  (** largest single module compiled here *)
  ms_pin_underflows : int;  (** unbalanced unpins caught and clamped *)
  ms_backend_compiles : int;  (** back-end compiles actually run *)
  ms_dedup_waits : int;
      (** misses served by waiting on another domain's in-flight compile
          instead of compiling redundantly *)
}

val mem_stats : t -> mem_stats

(** {1 Persistent snapshots}

    A snapshot stores every artifact-bearing entry — relocatable code
    bytes, symbols, pending fixups (parameter holes included, unbound),
    baked string constants and the shape plan itself — under a
    CRC-32C-checksummed header carrying the artifact format version and
    target. Records are keyed by {!Fingerprint.key_v} (which also folds
    the parameter-format version), so a snapshot from another format
    version, back-end build or architecture fails key verification loudly
    instead of ever mis-linking. *)

(** [save t file] snapshots every artifact-bearing entry to [file]
    (written atomically via a temp file), coldest entry first so {!load}
    reconstructs the same recency order (per shard, in shard index order;
    exactly overall for the single-shard layout deterministic runs use).
    Interpreter entries (no artifact) are skipped. *)
val save : t -> string -> unit

(** [load ~capacity ?shards ~db file] is a fresh cache of [capacity]
    entries over [shards] hash shards (default 1) holding [file]'s
    records, unlinked — each entry re-links lazily on its first hit. [db]
    must be the same deterministic database build the snapshot was taken
    against (same target, same {!Engine.layout_fingerprint}); loading
    should happen right after the database is built, before any query
    runs, so the baked string constants can be re-materialized at their
    original addresses. If the snapshot holds more than [capacity] records
    the coldest overflow is evicted cleanly (no pins, no spurious byte
    accounting). Truncated, bit-flipped, version-mismatched or
    layout-mismatched snapshots raise [Invalid_argument] with a
    descriptive message. *)
val load :
  capacity:int -> ?shards:int -> db:Qcomp_engine.Engine.db -> string -> t
