(** Compiled-code cache: plan fingerprint -> relocatable compiled artifact.

    Two levels, mirroring how the compilation pipeline splits:

    - a {e plan memo} keyed by [(fingerprint, target)] holding the
      code-generated query ({!Qcomp_codegen.Codegen.compiled}). All
      back-ends compiling the same plan share one codegen result, which is
      what makes hot-swapping tiers possible: every tier's module exposes
      the same function names over the same state layout.
    - an {e LRU module cache} keyed by [(fingerprint, backend, target)]
      holding the back-end's relocatable {!Qcomp_backend.Artifact.t}, its
      lazily linked live module, its code size and its modelled compile
      cost. This is the bounded, evicting level — machine code is the
      expensive artifact.

    With parameterized-plan specialization, the cached unit is a {e shape}:
    a plan whose eligible literals have been replaced by parameter holes
    ({!Qcomp_plan.Paramize}). The artifact is compiled once per shape with
    its holes unbound; every literal variant of the shape is served by a
    cheap bind-link ({!force} with a parameter vector), so the per-query
    cost after the first compile is microseconds regardless of the
    literals. Entries keep a short MRU list of bound instances — repeated
    vectors are exact hits, new vectors shape hits. Instances claimed by an
    in-flight query ({!force} with [~claim:true]) carry a reference count
    and survive the MRU trim until {!release}d, so one query's literal
    churn can never dispose a module another query is executing.

    Since the redesign around artifacts, the cached unit is the
    {e relocatable} output of the back-end; the live module is produced by
    the shared link step ({!Qcomp_backend.Backend.link_artifact}) on first
    use ({!force}). That split is what {!save}/{!load} exploit: a snapshot
    stores artifacts (position-independent, address-free), and a freshly
    started server re-links them lazily against its own [Emu] layout —
    paying microseconds of linking instead of the back-end's compile
    seconds.

    Eviction releases a linked module's code regions back to the
    emulator's region allocator ({!Qcomp_backend.Backend.dispose} →
    {!Qcomp_vm.Emu.release_code}); never-linked snapshot entries own no
    code memory, so evicting them frees nothing and counts nothing.
    Entries still referenced by an in-flight query are {e pinned}: their
    disposal is deferred until the last pin drops, so a query never
    executes freed code.

    The module level is {e hash-sharded}: entries are distributed over
    [shards] independent LRUs (keyed by fingerprint and back-end), each
    behind its own mutex, so worker domains missing on different plans
    never contend on one global cache lock — the contention the serving
    pool measured under load. [shards = 1] (the default, and the only
    configuration the deterministic discrete-event driver uses) behaves
    exactly like the previous single-mutex cache, including snapshot byte
    layout. Stats are aggregated across shards on read.

    Each shard also carries an {e in-flight compile table}: the first
    domain to miss on a key marks it in flight and compiles outside the
    lock; domains racing on the same key wait on the shard's condition
    variable and pick the finished entry up from the LRU instead of
    burning a redundant back-end compile ({!get_or_compile}). Deduped
    waits and actual back-end compiles are counted in {!mem_stats}.

    Lock ordering: shard mutex before the plan-memo mutex before the
    emulator's code-layout lock (disposal from eviction, and lazy linking
    in {!force}, happen with the shard mutex held), never the reverse.
    Compilation itself ({!compile_uncached}) runs with {e no} cache lock
    held so independent plans compile concurrently; only the
    predict-link-register sequence inside serializes on the layout lock. *)

open Qcomp_support
open Qcomp_engine

type key = {
  ck_fp : int64;  (** canonical plan (shape) fingerprint *)
  ck_backend : string;
  ck_target : string;
}

(** One parameter binding of an entry's shape: an immutable linked module
    whose parameter holes hold exactly [b_params]. Entries keep a short
    MRU list of these; a repeated literal vector reuses its instance
    (exact hit), a new vector re-links the artifact (shape hit + bind).
    Instances are immutable by design — patching a shared module's holes
    in place would race with a query mid-execution on the same module,
    even under the sequential driver (execution interleaves at quantum
    boundaries). [b_refs] counts in-flight queries executing this
    instance ({!force} [~claim:true] .. {!release}); the MRU trim skips
    instances with live references. *)
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
      (** (string, SSO struct address, body address or 0) literals the
          code generator baked into the artifact as immediates; {!load}
          re-materializes them at the same addresses *)
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

(* One hash shard: an independent LRU plus the in-flight compile table,
   all guarded by [sh_mu]. Counters live per shard (mutated under the
   shard mutex) and are summed on read. *)
type shard = {
  sh_mu : Mutex.t;
  sh_cv : Condition.t;  (** signalled when an in-flight compile lands *)
  sh_modules : (key, entry) Lru.t;
  sh_inflight : (key, unit) Hashtbl.t;
  mutable sh_bytes_freed : int;  (** code bytes returned to the allocator *)
  mutable sh_max_entry_bytes : int;  (** largest module ever compiled here *)
  mutable sh_pin_underflows : int;  (** unbalanced unpins caught, ignored *)
  mutable sh_shape_hits : int;
  mutable sh_exact_hits : int;
  mutable sh_binds : int;
  mutable sh_bind_host_s : float;
  mutable sh_compiles : int;  (** back-end compiles actually run *)
  mutable sh_dedup_waits : int;  (** misses served by waiting on another
                                     domain's in-flight compile *)
}

type t = {
  plans_mu : Mutex.t;  (** guards [plans] only *)
  plans : (int64 * string, Qcomp_codegen.Codegen.compiled) Hashtbl.t;
  shards : shard array;
}

(* Deterministic shard pick: fingerprint xor a structural hash of the
   back-end name, so one plan's tiers spread across shards too. *)
let shard_of t (k : key) =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    let h = Int64.to_int k.ck_fp lxor Hashtbl.hash k.ck_backend in
    t.shards.((h land max_int) mod n)

let shard_of_entry t e = shard_of t e.ce_key

(* Most bound instances a single entry retains. Heavy literal skew (the
   Zipf workloads) concentrates on few vectors, so a short list holds the
   hot ones; the cold tail re-binds in microseconds. *)
let max_bound_instances = 8

(* Callers hold the shard mutex. A never-linked entry owns no code
   regions: freeing it must neither call dispose (there is nothing to
   release) nor count its bytes as freed — that drift is exactly what the
   overflow path of [load] used to get wrong. Each bound instance owns its
   own copy of the code, so each counts separately. *)
let dispose_bound sh b =
  sh.sh_bytes_freed <-
    sh.sh_bytes_freed + b.b_cm.Qcomp_backend.Backend.cm_code_size;
  b.b_dispose ()

let free sh e =
  List.iter (dispose_bound sh) e.ce_bound;
  e.ce_bound <- []

(* Drop instances beyond the retention cap, least recently used first,
   keeping any instance an in-flight query still references
   ([b_refs > 0]) regardless of its position — it is disposed by the
   trim after its {!release} drops the last reference. Every disposal is
   counted in [sh_bytes_freed]. Callers hold the shard mutex. *)
let trim sh e =
  if List.length e.ce_bound > max_bound_instances then begin
    let rec cut n = function
      | [] -> []
      | b :: rest ->
          if n > 0 then b :: cut (n - 1) rest
          else if b.b_refs > 0 then b :: cut 0 rest
          else begin
            dispose_bound sh b;
            cut 0 rest
          end
    in
    e.ce_bound <- cut max_bound_instances e.ce_bound
  end

(* LRU drop: dispose now, or defer until the last in-flight user unpins.
   Runs under the shard mutex (drops only happen inside a locked
   [Lru.add]). *)
let drop sh e = if !(e.ce_pins) > 0 then e.ce_evicted := true else free sh e

let make_shard ~capacity =
  let sh =
    {
      sh_mu = Mutex.create ();
      sh_cv = Condition.create ();
      sh_modules = Lru.create ~capacity;
      sh_inflight = Hashtbl.create 8;
      sh_bytes_freed = 0;
      sh_max_entry_bytes = 0;
      sh_pin_underflows = 0;
      sh_shape_hits = 0;
      sh_exact_hits = 0;
      sh_binds = 0;
      sh_bind_host_s = 0.0;
      sh_compiles = 0;
      sh_dedup_waits = 0;
    }
  in
  Lru.set_on_drop sh.sh_modules (fun e -> drop sh e);
  sh

let create_sharded ~capacity ~shards =
  if shards < 1 then
    invalid_arg "Code_cache.create_sharded: shards must be positive";
  if capacity < 1 then
    invalid_arg "Code_cache.create_sharded: capacity must be positive";
  (* ceil-divide so the aggregate capacity never shrinks below the ask *)
  let per = max 1 ((capacity + shards - 1) / shards) in
  {
    plans_mu = Mutex.create ();
    plans = Hashtbl.create 64;
    shards = Array.init shards (fun _ -> make_shard ~capacity:per);
  }

let create ~capacity = create_sharded ~capacity ~shards:1
let shard_count t = Array.length t.shards

(** Pin [e] against disposal while a query holds it. Every pin must be
    matched by an {!unpin} when the query finishes. *)
let pin t e =
  let sh = shard_of_entry t e in
  Mutex.protect sh.sh_mu (fun () -> incr e.ce_pins)

(** Drop one pin. An unpin without a matching pin is a caller bug that used
    to drive the count negative (and could later double-dispose a module a
    query was still running); it is now clamped at zero, counted in
    [ms_pin_underflows] and logged on first occurrence. *)
let unpin t e =
  let sh = shard_of_entry t e in
  Mutex.protect sh.sh_mu (fun () ->
      if !(e.ce_pins) <= 0 then begin
        sh.sh_pin_underflows <- sh.sh_pin_underflows + 1;
        if sh.sh_pin_underflows = 1 then
          Printf.eprintf
            "code_cache: unpin without matching pin (clamped at zero)\n%!"
      end
      else begin
        decr e.ce_pins;
        if !(e.ce_pins) = 0 then
          if !(e.ce_evicted) then begin
            e.ce_evicted := false;
            free sh e
          end
          else trim sh e
      end)

let key db ~backend plan =
  {
    ck_fp = Fingerprint.plan plan;
    ck_backend = Qcomp_backend.Backend.name backend;
    ck_target = db.Engine.target.Qcomp_vm.Target.name;
  }

(** Codegen once per (fingerprint, target); the memo is unbounded because
    codegen results are small compared to machine code. Atomic: concurrent
    callers for the same fingerprint get the {e same} codegen result, which
    the tier hot-swap relies on (one state layout per plan). Guarded by its
    own mutex (nested inside a shard mutex when called from {!force}). *)
let plan_ir t db ~fp ~name plan =
  Mutex.protect t.plans_mu (fun () ->
      let pk = (fp, db.Engine.target.Qcomp_vm.Target.name) in
      match Hashtbl.find_opt t.plans pk with
      | Some cq -> cq
      | None ->
          let cq = Engine.plan_to_ir db ~name plan in
          Hashtbl.replace t.plans pk cq;
          cq)

(** The live (codegen result, linked module, fresh-bind) triple for [e]
    under the parameter vector [params], linking the artifact against
    [db]'s layout as needed.

    - An instance already bound to exactly [params] is reused (an {e exact
      hit} — zero work, the caller charges nothing).
    - Otherwise the shape's artifact is re-linked with [params] patched
      into its holes (a {e shape hit} — the caller charges
      {!Qcomp_engine.Costmodel.bind_seconds}, not the back-end compile), or,
      for artifact-less interpreter entries, the bytecode is re-translated with
      the constants inlined (same order of cost).
    - For entries {!load}ed from a snapshot the first call additionally
      re-runs codegen through the shared plan memo — never the back-end
      compile.

    [~claim:true] additionally takes a reference on the returned instance:
    it survives the MRU-overflow trim until the matching {!release}, so
    other queries churning fresh vectors on the same entry can never
    dispose a module this query is executing. The serving drivers claim
    every instance they run or park for a hot-swap.

    The returned [bool] is true when a fresh bind-link was paid. *)
let force t db ?(params = ([||] : Qcomp_backend.Artifact.param_value array))
    ?(claim = false) e =
  (* A holeless entry (a whole-plan compile some rung fell back to, with
     every literal baked) ignores the caller's vector: there is nothing to
     bind, and linking it is the pre-parameterization lazy link, not a
     parameter-cache event. *)
  let params =
    match e.ce_code with
    | Relocatable art
      when Array.length art.Qcomp_backend.Artifact.a_params = 0
           && Array.length params > 0 ->
        [||]
    | _ -> params
  in
  let sh = shard_of_entry t e in
  Mutex.protect sh.sh_mu (fun () ->
      let cq =
        match e.ce_cq with
        | Some cq -> cq
        | None ->
            let cq = plan_ir t db ~fp:e.ce_fp ~name:e.ce_name e.ce_plan in
            e.ce_cq <- Some cq;
            cq
      in
      let parameterized = Array.length params > 0 in
      match List.find_opt (fun b -> b.b_params = params) e.ce_bound with
      | Some b ->
          (* MRU promotion keeps the executing instance at the head *)
          e.ce_bound <- b :: List.filter (fun x -> x != b) e.ce_bound;
          if claim then b.b_refs <- b.b_refs + 1;
          if parameterized then
            if e.ce_fresh then e.ce_fresh <- false
            else sh.sh_exact_hits <- sh.sh_exact_hits + 1;
          (cq, b.b_cm, false)
      | None ->
          let timing = Timing.create ~enabled:false () in
          let t0 = Timing.now () in
          let cm =
            match e.ce_code with
            | Relocatable art ->
                Qcomp_backend.Backend.link_artifact ~params ~timing
                  ~emu:db.Engine.emu ~registry:db.Engine.registry
                  ~unwind:db.Engine.unwind art
            | Host translate ->
                translate ~params ~timing ~emu:db.Engine.emu
                  ~registry:db.Engine.registry cq.Qcomp_codegen.Codegen.modul
          in
          e.ce_bound <-
            {
              b_params = params;
              b_cm = cm;
              b_dispose = (fun () -> Engine.dispose_module db cm);
              b_refs = (if claim then 1 else 0);
            }
            :: e.ce_bound;
          e.ce_fresh <- false;
          if parameterized then begin
            sh.sh_shape_hits <- sh.sh_shape_hits + 1;
            sh.sh_binds <- sh.sh_binds + 1;
            sh.sh_bind_host_s <- sh.sh_bind_host_s +. (Timing.now () -. t0)
          end;
          (* overflow disposes only unreferenced instances; anything a
             query claimed survives until its release *)
          trim sh e;
          (cq, cm, true))

(** Drop the reference [force ~claim:true] took on the instance whose
    module is [cm], then re-apply the MRU-overflow trim — the point where
    an instance that outlived the cap only because a query was executing
    it is finally disposed (and counted in [ms_bytes_freed]). A module
    already disposed with its evicted entry is ignored. *)
let release t e cm =
  let sh = shard_of_entry t e in
  Mutex.protect sh.sh_mu (fun () ->
      match List.find_opt (fun b -> b.b_cm == cm) e.ce_bound with
      | Some b ->
          if b.b_refs > 0 then b.b_refs <- b.b_refs - 1;
          trim sh e
      | None -> ())

let find t k =
  let sh = shard_of t k in
  Mutex.protect sh.sh_mu (fun () -> Lru.find sh.sh_modules k)

(** Lookup that touches neither recency nor the hit/miss counters — for
    policies whose semantics say "no cache" (Static charges the full
    modelled compile every time, so a hit would be a lie in the printed
    hit-rate) and for the tier controller probing whether a stronger
    module is already resident without skewing the serving stats. *)
let find_nostat t k =
  let sh = shard_of t k in
  Mutex.protect sh.sh_mu (fun () -> Lru.peek sh.sh_modules k)

(* String literals the code generator baked into this plan's code, with
   the linear-memory addresses codegen allocated for them. Long strings
   also record the out-of-line body address. *)
let capture_consts db (cq : Qcomp_codegen.Codegen.compiled) =
  let mem = Engine.memory db in
  List.map
    (fun (s, addr) ->
      let body =
        if String.length s > Qcomp_runtime.Sso.inline_max then
          Int64.to_int (Qcomp_vm.Memory.load64 mem (addr + 8))
        else 0
      in
      (s, addr, body))
    cq.Qcomp_codegen.Codegen.const_strs

(** Compile without touching the LRU: a background compilation must not
    become visible to other queries before the scheduler says its
    (simulated) compile time has elapsed — the caller {!insert}s the entry
    at the completion event. No cache lock is held during back-end
    compilation, so independent plans compile concurrently on different
    domains; only the short predict-link-register window inside each
    back-end (and every code-registration/disposal) serializes on the
    layout lock.

    When the back-end supports relocatable output the artifact is compiled
    once and linked through the shared {!Backend.link_artifact} step; the
    artifact is retained on the entry so {!save} can snapshot it.

    For a parameterized shape, [params] is the triggering query's literal
    vector: the artifact itself stays unbound (holes open), and the entry
    is born with one bound instance for that vector. *)
let compile_uncached t db ~backend
    ?(params = ([||] : Qcomp_backend.Artifact.param_value array)) ~name plan =
  let k = key db ~backend plan in
  let cq = plan_ir t db ~fp:k.ck_fp ~name plan in
  let modul = cq.Qcomp_codegen.Codegen.modul in
  let timing = Timing.create ~enabled:false () in
  let code, cm =
    match backend.Qcomp_backend.Backend.compile with
    | Native { artifact; link } ->
        let art =
          artifact ~timing ~target:db.Engine.target
            ~registry:db.Engine.registry modul
        in
        ( Relocatable art,
          Qcomp_backend.Backend.link_artifact ~link ~params ~timing
            ~emu:db.Engine.emu ~registry:db.Engine.registry
            ~unwind:db.Engine.unwind art )
    | Host translate ->
        ( Host translate,
          translate ~params ~timing ~emu:db.Engine.emu
            ~registry:db.Engine.registry modul )
  in
  let bytes = cm.Qcomp_backend.Backend.cm_code_size in
  let sh = shard_of t k in
  Mutex.protect sh.sh_mu (fun () ->
      if bytes > sh.sh_max_entry_bytes then sh.sh_max_entry_bytes <- bytes;
      sh.sh_compiles <- sh.sh_compiles + 1;
      if Array.length params > 0 then sh.sh_binds <- sh.sh_binds + 1);
  {
    ce_name = name;
    ce_key = k;
    ce_plan = plan;
    ce_fp = k.ck_fp;
    ce_code = code;
    ce_consts = capture_consts db cq;
    ce_db_fp = Engine.layout_fingerprint db;
    ce_cq = Some cq;
    ce_bound =
      [
        {
          b_params = params;
          b_cm = cm;
          b_dispose = (fun () -> Engine.dispose_module db cm);
          b_refs = 0;
        };
      ];
    ce_fresh = true;
    ce_compile_s = Costmodel.compile_seconds ~backend:k.ck_backend modul;
    ce_code_bytes = bytes;
    ce_pins = ref 0;
    ce_evicted = ref false;
  }

let insert t k e =
  let sh = shard_of t k in
  Mutex.protect sh.sh_mu (fun () ->
      Lru.add sh.sh_modules k ~weight:e.ce_code_bytes e)

(** [get_or_compile t db ~backend ~name plan] is [(entry, hit)]: the cached
    module for the plan under [backend], compiling (and inserting) on miss.
    The returned [ce_compile_s] is the modelled cost — on a hit the caller
    decides whether to charge it (a serving system does not).

    Concurrent misses on one key are deduplicated through the shard's
    in-flight table: the first domain marks the key in flight and compiles
    outside the lock; racers wait on the shard's condition variable and
    pick the finished entry up from the LRU (counted in
    [ms_dedup_waits]) — the redundant back-end compile the old
    compile-then-lose-the-insert race paid is gone, and with it the
    disposal drift on the loser's instances.

    [~stats:false] keeps the lookup out of the hit/miss counters (Static
    mode's semantics are "no cache"). [~pin:true] pins the entry in the
    same critical section as the lookup/insert, so an eviction in the
    return window can never free it before the caller runs it. *)
let get_or_compile t db ~backend ?params ?(stats = true) ?(pin = false) ~name
    plan =
  let k = key db ~backend plan in
  let sh = shard_of t k in
  let lookup () =
    if stats then Lru.find sh.sh_modules k else Lru.peek sh.sh_modules k
  in
  Mutex.lock sh.sh_mu;
  let waited = ref false in
  let rec loop () =
    match lookup () with
    | Some e ->
        if pin then incr e.ce_pins;
        Mutex.unlock sh.sh_mu;
        (e, true)
    | None ->
        if Hashtbl.mem sh.sh_inflight k then begin
          if not !waited then begin
            sh.sh_dedup_waits <- sh.sh_dedup_waits + 1;
            waited := true
          end;
          Condition.wait sh.sh_cv sh.sh_mu;
          loop ()
        end
        else begin
          Hashtbl.replace sh.sh_inflight k ();
          Mutex.unlock sh.sh_mu;
          let e =
            try compile_uncached t db ~backend ?params ~name plan
            with exn ->
              Mutex.lock sh.sh_mu;
              Hashtbl.remove sh.sh_inflight k;
              Condition.broadcast sh.sh_cv;
              Mutex.unlock sh.sh_mu;
              raise exn
          in
          Mutex.lock sh.sh_mu;
          if pin then incr e.ce_pins;
          Lru.add sh.sh_modules k ~weight:e.ce_code_bytes e;
          Hashtbl.remove sh.sh_inflight k;
          Condition.broadcast sh.sh_cv;
          Mutex.unlock sh.sh_mu;
          (e, false)
        end
  in
  loop ()

let fold_shards t init f =
  Array.fold_left (fun acc sh -> Mutex.protect sh.sh_mu (fun () -> f acc sh)) init t.shards

let stats t =
  fold_shards t
    {
      Lru.hits = 0;
      misses = 0;
      evictions = 0;
      entries = 0;
      bytes = 0;
      bytes_evicted = 0;
    }
    (fun acc sh ->
      let s = Lru.stats sh.sh_modules in
      {
        Lru.hits = acc.Lru.hits + s.Lru.hits;
        misses = acc.Lru.misses + s.Lru.misses;
        evictions = acc.Lru.evictions + s.Lru.evictions;
        entries = acc.Lru.entries + s.Lru.entries;
        bytes = acc.Lru.bytes + s.Lru.bytes;
        bytes_evicted = acc.Lru.bytes_evicted + s.Lru.bytes_evicted;
      })

let param_stats t =
  fold_shards t
    { ps_shape_hits = 0; ps_exact_hits = 0; ps_binds = 0; ps_bind_host_s = 0.0 }
    (fun acc sh ->
      {
        ps_shape_hits = acc.ps_shape_hits + sh.sh_shape_hits;
        ps_exact_hits = acc.ps_exact_hits + sh.sh_exact_hits;
        ps_binds = acc.ps_binds + sh.sh_binds;
        ps_bind_host_s = acc.ps_bind_host_s +. sh.sh_bind_host_s;
      })

(** Sum of pins across live entries — zero when the server has quiesced. *)
let live_pins t =
  fold_shards t 0 (fun acc sh ->
      let n = ref acc in
      Lru.iter sh.sh_modules (fun e -> n := !n + !(e.ce_pins));
      !n)

type mem_stats = {
  ms_bytes_freed : int;  (** code bytes returned to the region allocator *)
  ms_max_entry_bytes : int;  (** largest single module compiled here *)
  ms_pin_underflows : int;  (** unbalanced unpins caught and clamped *)
  ms_backend_compiles : int;  (** back-end compiles actually run *)
  ms_dedup_waits : int;
      (** misses served by waiting on another domain's in-flight compile
          instead of compiling redundantly *)
}

let mem_stats t =
  fold_shards t
    {
      ms_bytes_freed = 0;
      ms_max_entry_bytes = 0;
      ms_pin_underflows = 0;
      ms_backend_compiles = 0;
      ms_dedup_waits = 0;
    }
    (fun acc sh ->
      {
        ms_bytes_freed = acc.ms_bytes_freed + sh.sh_bytes_freed;
        ms_max_entry_bytes = max acc.ms_max_entry_bytes sh.sh_max_entry_bytes;
        ms_pin_underflows = acc.ms_pin_underflows + sh.sh_pin_underflows;
        ms_backend_compiles = acc.ms_backend_compiles + sh.sh_compiles;
        ms_dedup_waits = acc.ms_dedup_waits + sh.sh_dedup_waits;
      })

(* ---------------- persistent snapshots ---------------- *)

(* Snapshot file, format version = Artifact.format_version:

     "QCSS" | u32 version | str target | u32 record count
            | u32 payload length | payload | i64 crc32c(payload)

   and each payload record:

     i64 key_v | i64 plan fingerprint | str backend | str name
     | i64 compile-seconds bits | i64 code bytes | i64 db layout fp
     | str plan (Wire codec) | u32 const count
     | { str s, i64 struct addr, i64 body addr } * | str artifact

   Records are written LRU-first so a load into any capacity re-creates
   the same recency order and overflow evicts the coldest entries. A
   sharded cache writes its shards in index order, each coldest-first —
   recency is preserved per shard (and exactly overall for the
   single-shard layout every deterministic run uses). Everything
   malformed — bad magic, other version, other target, length mismatch,
   checksum mismatch, key mismatch, layout mismatch, artifact corruption —
   raises [Invalid_argument]; a snapshot is either loaded exactly or not
   at all. *)

let snap_magic = "QCSS"

(* Back-end code-layout generation folded into each record's key. The
   stencil back-end's output is a function of its stencil library, so a
   library bump must invalidate old snapshots (a record patched from set N
   must never be re-linked by a process with set N+1); DirectEmit's code
   computes the runtime's short-string hash inline, so a snapshot written
   under another hash must not be re-linked either. Other back-ends call
   the runtime for it, are self-contained and stay at 0, leaving their
   keys unchanged. *)
let backend_code_version = function
  | "stencil" -> Qcomp_stencil.Stencil.library_version
  | "directemit" -> Qcomp_directemit.Directemit.code_version
  | _ -> 0

let crc_string s =
  let h = ref 0xC5_C5_C5L in
  String.iter (fun c -> h := Hashes.crc32c_byte !h (Char.code c)) s;
  !h

let add_str buf s =
  Buffer.add_int32_le buf (Int32.of_int (String.length s));
  Buffer.add_string buf s

(** Snapshot every artifact-bearing entry to [file] (atomically: written
    to a temp file and renamed). Entries whose back-end produced no
    relocatable artifact (the interpreter) are skipped — their modelled
    compile cost is microseconds, there is nothing worth persisting. *)
let save t file =
  let records =
    List.concat_map
      (fun sh ->
        Mutex.protect sh.sh_mu (fun () ->
            (* LRU-first: keys_mru is most-recent-first *)
            List.rev
              (List.filter_map
                 (fun k ->
                   match Lru.peek sh.sh_modules k with
                   | Some ({ ce_code = Relocatable art; _ } as e) -> Some (k, e, art)
                   | _ -> None)
                 (Lru.keys_mru sh.sh_modules))))
      (Array.to_list t.shards)
  in
  let payload = Buffer.create 65536 in
  let target = ref "" in
  List.iter
    (fun (k, e, art) ->
      target := k.ck_target;
      Buffer.add_int64_le payload
        (Fingerprint.key_v
           ~backend_version:(backend_code_version k.ck_backend)
           ~param_version:Qcomp_plan.Paramize.format_version
           ~version:Qcomp_backend.Artifact.format_version
           ~backend:k.ck_backend ~target:k.ck_target e.ce_plan);
      Buffer.add_int64_le payload e.ce_fp;
      add_str payload k.ck_backend;
      add_str payload e.ce_name;
      Buffer.add_int64_le payload (Int64.bits_of_float e.ce_compile_s);
      Buffer.add_int64_le payload (Int64.of_int e.ce_code_bytes);
      Buffer.add_int64_le payload e.ce_db_fp;
      add_str payload (Qcomp_plan.Wire.to_string e.ce_plan);
      Buffer.add_int32_le payload (Int32.of_int (List.length e.ce_consts));
      List.iter
        (fun (s, addr, body) ->
          add_str payload s;
          Buffer.add_int64_le payload (Int64.of_int addr);
          Buffer.add_int64_le payload (Int64.of_int body))
        e.ce_consts;
      add_str payload (Qcomp_backend.Artifact.serialize art))
    records;
  let payload = Buffer.contents payload in
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf snap_magic;
  Buffer.add_int32_le buf (Int32.of_int Qcomp_backend.Artifact.format_version);
  add_str buf !target;
  Buffer.add_int32_le buf (Int32.of_int (List.length records));
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_int64_le buf (crc_string payload);
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp file

let corrupt what = invalid_arg ("Code_cache.load: " ^ what)

(** Re-materialize a snapshot's baked string literals at their original
    addresses: the artifacts carry those addresses as immediates, so the
    bytes must exist before any snapshot module runs. Claims go through
    {!Memory.claim}, which pins the spans above the current break — the
    reason loads must happen on a freshly built database (same
    deterministic [make_db], no queries served yet). The same struct may
    be named by several records (tiers share one codegen result); claims
    are deduplicated, and a conflicting duplicate is corruption. *)
let materialize_consts db claimed consts =
  let mem = Engine.memory db in
  List.iter
    (fun (s, addr, body) ->
      match Hashtbl.find_opt claimed addr with
      | Some s' ->
          if not (String.equal s s') then
            corrupt "two string constants claim one address"
      | None ->
          Qcomp_vm.Memory.claim mem ~addr ~size:Qcomp_runtime.Sso.struct_size
            ~align:16;
          let n = String.length s in
          Qcomp_vm.Memory.store mem ~addr ~size:4 (Int64.of_int n);
          if n <= Qcomp_runtime.Sso.inline_max then
            Qcomp_vm.Memory.store_bytes mem (addr + 4) s
          else begin
            if body = 0 then corrupt "long string constant without a body";
            Qcomp_vm.Memory.claim mem ~addr:body ~size:n ~align:8;
            Qcomp_vm.Memory.store_bytes mem body s;
            Qcomp_vm.Memory.store_bytes mem (addr + 4) (String.sub s 0 4);
            Qcomp_vm.Memory.store64 mem (addr + 8) (Int64.of_int body)
          end;
          Hashtbl.add claimed addr s)
    consts

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> corrupt e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

(** Load a snapshot written by {!save} into a fresh cache of [capacity]
    entries over [shards] hash shards (default 1). [db] must be the same
    deterministic database build the snapshot was taken against (checked
    via {!Engine.layout_fingerprint}) on the same target with the same
    runtime registry (checked per record and again by the linker). Entries
    are inserted coldest-first and {e unlinked}: the first cache hit pays
    the re-link, so loading is cheap even for snapshots far larger than
    [capacity] — the overflow simply evicts the coldest records with zero
    pins and zero spurious byte accounting. All corruption and
    version/layout mismatches raise [Invalid_argument]. *)
let load ~capacity ?(shards = 1) ~db file =
  let s = read_file file in
  let len = String.length s in
  let pos = ref 0 in
  let need n = if n < 0 || !pos + n > len then corrupt "truncated" in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    if v < 0 then corrupt "negative length";
    v
  in
  let i64 () =
    need 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  need 4;
  if not (String.equal (String.sub s 0 4) snap_magic) then corrupt "bad magic";
  pos := 4;
  let version = u32 () in
  if version <> Qcomp_backend.Artifact.format_version then
    corrupt
      (Printf.sprintf
         "snapshot format version %d, this build reads %d — recompile the \
          snapshot"
         version Qcomp_backend.Artifact.format_version);
  let target = str () in
  let live_target = db.Engine.target.Qcomp_vm.Target.name in
  if not (String.equal target live_target) then
    corrupt
      (Printf.sprintf "snapshot targets %s, this machine is %s" target
         live_target);
  let count = u32 () in
  let payload_len = u32 () in
  need (payload_len + 8);
  let payload = String.sub s !pos payload_len in
  pos := !pos + payload_len;
  let crc = i64 () in
  if !pos <> len then corrupt "trailing bytes";
  if not (Int64.equal crc (crc_string payload)) then
    corrupt "checksum mismatch";
  (* fresh cursor over the verified payload *)
  let pos = ref 0 in
  let need n = if n < 0 || !pos + n > payload_len then corrupt "truncated" in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le payload !pos) in
    pos := !pos + 4;
    if v < 0 then corrupt "negative length";
    v
  in
  let i64 () =
    need 8;
    let v = String.get_int64_le payload !pos in
    pos := !pos + 8;
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let v = String.sub payload !pos n in
    pos := !pos + n;
    v
  in
  let t = create_sharded ~capacity ~shards in
  let db_fp = Engine.layout_fingerprint db in
  let claimed = Hashtbl.create 32 in
  for _ = 1 to count do
    let kv = i64 () in
    let fp = i64 () in
    let backend = str () in
    let name = str () in
    let compile_s = Int64.float_of_bits (i64 ()) in
    let code_bytes = Int64.to_int (i64 ()) in
    let rec_db_fp = i64 () in
    let plan = Qcomp_plan.Wire.of_string (str ()) in
    let nconsts = u32 () in
    let consts =
      List.init nconsts (fun _ ->
          let cs = str () in
          let addr = Int64.to_int (i64 ()) in
          let body = Int64.to_int (i64 ()) in
          (cs, addr, body))
    in
    let art = Qcomp_backend.Artifact.deserialize (str ()) in
    (* the versioned key must reproduce from the decoded plan: any drift
       in format version, backend, target or plan encoding is structural
       corruption, not something to link anyway *)
    if
      not
        (Int64.equal kv
           (Fingerprint.key_v
              ~backend_version:(backend_code_version backend)
              ~param_version:Qcomp_plan.Paramize.format_version ~version
              ~backend ~target:live_target plan))
    then corrupt ("stale or corrupt record for query " ^ name);
    if not (Int64.equal fp (Fingerprint.plan plan)) then
      corrupt ("plan fingerprint mismatch for query " ^ name);
    if
      not
        (String.equal art.Qcomp_backend.Artifact.a_backend backend
        && String.equal art.Qcomp_backend.Artifact.a_target live_target)
    then corrupt ("artifact provenance mismatch for query " ^ name);
    if not (Int64.equal rec_db_fp db_fp) then
      corrupt
        (Printf.sprintf
           "database layout changed since the snapshot (query %s): %Lx vs %Lx"
           name rec_db_fp db_fp);
    if code_bytes < 0 then corrupt "negative code size";
    materialize_consts db claimed consts;
    let k = { ck_fp = fp; ck_backend = backend; ck_target = live_target } in
    let e =
      {
        ce_name = name;
        ce_key = k;
        ce_plan = plan;
        ce_fp = fp;
        ce_code = Relocatable art;
        ce_consts = consts;
        ce_db_fp = rec_db_fp;
        ce_cq = None;
        ce_bound = [];
        ce_fresh = false;
        ce_compile_s = compile_s;
        ce_code_bytes = code_bytes;
        ce_pins = ref 0;
        ce_evicted = ref false;
      }
    in
    insert t k e
  done;
  if !pos <> payload_len then corrupt "trailing bytes";
  t
