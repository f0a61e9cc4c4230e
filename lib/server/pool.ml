(** Domain-based parallel serving: real OS-thread workers over one shared
    database, code cache and emulated machine.

    This is the production-shaped counterpart of the discrete-event
    scheduler in {!Server} (which remains the deterministic test double).
    Each worker domain owns a {!Qcomp_engine.Engine.domain_view} — a fresh
    {!Qcomp_vm.Emu.context} over the shared memory and code registries — so
    query execution is genuinely concurrent: registers, flags and cycle
    counters are per-domain, while compiled code, the module cache and the
    runtime dispatch table are shared and mutex-guarded.

    Traffic is {e open-loop}: a feeder domain releases each request at its
    arrival timestamp (wall-clock, offset from run start) into a bounded
    multi-tenant {!Admission} queue — arrivals do not wait for free
    workers, exactly like clients that keep sending regardless of server
    load. When the queue is at its [admission_cap] the request is {e shed}
    (rejected and counted) instead of growing server state without bound.
    Workers block on a condition variable while the queue is empty — an
    idle pool burns no host CPU — and dequeue tenant-fair round-robin.

    Policies mirror the simulator:
    - {b Static}: every query runs the fixed back-end, compiling on its
      worker on a cache miss (the modelled compile charge is still reported
      per query).
    - {b Cached}: adaptive back-end fronted by the shared {!Code_cache};
      misses compile in the foreground, deduplicated across domains by the
      cache's per-shard in-flight table so a burst of identical plans
      compiles once and the rest wait.
    - {b Tiered}: queries start on interpreter bytecode immediately; the
      strong back-end compiles on dedicated background compile domains, and
      at the next morsel boundary after the module lands the execution
      hot-swaps.

    What stays deterministic under parallelism: per-query rows and
    checksums (results are independent of allocation addresses and domain
    interleaving), the set of compiled modules, and the final live-code
    accounting when the cache does not evict. What becomes wall-clock:
    arrival/start/finish/latency metrics, cache hit/miss counts under
    racing misses, shed decisions under an admission cap (queue occupancy
    depends on worker speed), and in Tiered mode the swap point (and hence
    the tier0/tier1 quanta split and exact cycle counts). Differential
    tests therefore compare the {e multiset} of (name, rows, checksum),
    and use a cap at least the stream length when they need zero sheds.

    Lock ordering: the pool mutex is the outermost; {!Code_cache}'s shard
    mutexes and the emulator's layout/registry locks nest inside it (the
    cache also takes its shard mutexes with no pool mutex held — the
    nesting is one-directional, never shard-then-pool). Entries are pinned
    in the same cache critical section as the lookup or insert, so an
    eviction in the return window can never free in-flight code; the bound
    instance a query executes is additionally {e claimed}
    ({!Code_cache.force} [~claim:true]) so another query's literal churn
    cannot dispose it mid-execution. *)

open Qcomp_support
open Qcomp_engine

type mode =
  | Static of Qcomp_backend.Backend.t
  | Cached
  | Tiered

let mode_name = function
  | Static b -> "static:" ^ Qcomp_backend.Backend.name b
  | Cached -> "cached"
  | Tiered -> "tiered"

type config = {
  workers : int;  (** execution workers *)
  compile_slots : int;  (** background compile pool size (Tiered) *)
  morsel : int;  (** rows per execution quantum *)
  cache_capacity : int;  (** module-cache entries *)
  mode : mode;
  reopt : bool;
      (** Tiered only: pick upgrades from observed cycles-per-row at
          morsel boundaries (including second upgrades) instead of the
          one-shot pre-execution estimate *)
  paramize : bool;
      (** Cached/Tiered: normalize incoming plans into (shape, parameter
          vector) so every literal variant of a template shares one cache
          entry; variants after the first pay a microsecond bind instead
          of a compile. Static mode always stays exact. *)
  mean_gap_s : float;  (** mean inter-arrival gap; 0 = all arrive at t=0 *)
  seed : int64;  (** drives the arrival process *)
  admission_cap : int option;
      (** bound on admission-queue occupancy; arrivals beyond it are shed
          (rejected, counted, reported). [None] = unbounded *)
  tenants : int;  (** tenant FIFOs in the admission queue (fair dequeue) *)
  cache_shards : int;
      (** hash shards of the code cache (when the driver creates it);
          1 = the deterministic single-lock layout *)
  intra : int;
      (** intra-query lanes per worker: parallelizable pipeline bodies fan
          each quantum's morsels out over this many execution lanes
          ({!Morsel_sched}); 1 = serial bodies, the classic behavior *)
}

let default_config =
  {
    workers = 4;
    compile_slots = 2;
    morsel = 512;
    cache_capacity = 64;
    mode = Tiered;
    reopt = false;
    paramize = true;
    mean_gap_s = 0.0005;
    seed = 42L;
    admission_cap = None;
    tenants = 1;
    cache_shards = 1;
    intra = 1;
  }

(** Split [plan] into its cache identity: the {e shape} (eligible literals
    replaced by {!Qcomp_plan.Expr.Param} holes) and the extracted literal
    vector in the back-ends' binding representation. Static mode and
    [paramize = false] keep the plan exact; a plan with nothing eligible is
    its own shape with an empty vector, which downstream degenerates to the
    pre-parameterization behavior. *)
let normalize_query config plan =
  let exact = (plan, ([||] : Qcomp_backend.Artifact.param_value array)) in
  match config.mode with
  | Static _ -> exact
  | Cached | Tiered ->
      if not config.paramize then exact
      else
        let shape, vals = Qcomp_plan.Paramize.normalize plan in
        if Array.length vals = 0 then exact
        else
          ( shape,
            Array.map
              (function
                | Qcomp_plan.Paramize.V_int (_, v) ->
                    Qcomp_backend.Artifact.Pv_int v
                | Qcomp_plan.Paramize.V_str s ->
                    Qcomp_backend.Artifact.Pv_str s)
              vals )

(** Shared by both drivers so a bad field fails the same way everywhere —
    previously [workers] raised while [compile_slots] was silently clamped
    to 1, which masked misconfiguration. *)
let validate_config ~driver c =
  let need name v =
    if v < 1 then
      invalid_arg (Printf.sprintf "%s: %s must be positive" driver name)
  in
  need "workers" c.workers;
  need "compile_slots" c.compile_slots;
  need "morsel" c.morsel;
  need "cache_capacity" c.cache_capacity;
  need "tenants" c.tenants;
  need "cache_shards" c.cache_shards;
  need "intra" c.intra;
  match c.admission_cap with
  | Some cap -> need "admission_cap" cap
  | None -> ()

(* The one canonical declaration of the per-query metric record lives in
   {!Report}; both drivers only alias it. *)
type query_metrics = Report.query_metrics

let qm_latency = Report.qm_latency

(** One timed request of the open-loop workload: release [rq_name]/[rq_plan]
    at [rq_arrival] seconds after run start, tagged with the submitting
    tenant. Both drivers consume the same request list, so a traffic trace
    generated once replays identically against the deterministic scheduler
    and the wall-clock pool. *)
type request = {
  rq_name : string;
  rq_plan : Qcomp_plan.Algebra.t;
  rq_arrival : float;  (** seconds after run start *)
  rq_tenant : int;
}

(** The legacy closed-list arrival process as a request list: exponential
    gaps with mean [config.mean_gap_s] drawn from [config.seed] (all at
    t=0 when the gap is zero), single tenant. Exactly the draws
    {!Server.run} has always made, so wrapping a plain stream through this
    changes no deterministic report. *)
let requests_of_stream config stream =
  let rng = Rng.create config.seed in
  let t = ref 0.0 in
  List.map
    (fun (name, plan) ->
      if config.mean_gap_s > 0.0 then
        t := !t +. (-.config.mean_gap_s *. log (1.0 -. Rng.float rng));
      { rq_name = name; rq_plan = plan; rq_arrival = !t; rq_tenant = 0 })
    stream

type qstate = {
  q_name : string;
  q_plan : Qcomp_plan.Algebra.t;  (** the shape when parameterized *)
  q_params : Qcomp_backend.Artifact.param_value array;
      (** this query's literal vector; [[||]] for exact plans *)
  q_exact : Qcomp_plan.Algebra.t;
      (** the original plan with literals in place — what rungs that
          cannot bind parameter holes compile (whole-plan fallback) *)
  q_arrival : float;  (** seconds after run start (the request's stamp) *)
  q_tenant : int;
  mutable q_start : float;
  mutable q_first_s : float option;  (** enqueue -> first-row, once known *)
  mutable q_compile_s : float;
  mutable q_cache_hit : bool;
  (* the back-end currently executing the query's quanta, and the full
     tier path in reverse; only the owning worker writes these *)
  mutable q_cur_tier : string;
  mutable q_tiers : string list;
  (* an upgrade (background compile or parked swap) is in flight; the
     controller makes no new decision until the swap is consumed *)
  mutable q_upgrading : bool;
  (* a finished background compile parks the (tier name, entry) here
     (already pinned for this query, under the pool mutex); the owning
     worker consumes it at the next quantum boundary *)
  q_swap : (string * Code_cache.entry) option Atomic.t;
  mutable q_switch_s : float option;
  mutable q_started_tier0 : bool;
  (* every cache entry this query touches stays pinned until it finishes *)
  mutable q_pinned : Code_cache.entry list;
  (* bound instances this query claimed via [force ~claim:true]; released
     on finish. Only the owning worker touches this list. *)
  mutable q_claims : (Code_cache.entry * Qcomp_backend.Backend.compiled_module) list;
  mutable q_done : bool;  (** written/read under the pool mutex *)
}

(** [run_requests ?cache db ~domains config requests] serves the timed
    [requests] open-loop. *)
let run_requests ?cache db ~domains config requests =
  if domains < 1 then invalid_arg "Pool.run: domains must be positive";
  validate_config ~driver:"Pool.run" config;
  let cache =
    match cache with
    | Some c -> c
    | None ->
        Code_cache.create_sharded ~capacity:config.cache_capacity
          ~shards:config.cache_shards
  in
  let mu = Mutex.create () in
  (* work available / feeder finished; workers block here when idle *)
  let work_cv = Condition.create () in
  let feeder_done = ref false in
  let admission : qstate Admission.t =
    Admission.create ?cap:config.admission_cap ~tenants:config.tenants ()
  in
  let sheds = ref [] in
  (* background (Tiered strong-tier) compiles in flight: key -> waiting
     queries; doubles as the dedup table for the compile queue *)
  let pending : (Code_cache.key, qstate list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let compile_jobs : (Engine.db -> unit) Queue.t = Queue.create () in
  let compile_cv = Condition.create () in
  let compile_closed = ref false in
  let done_q = ref [] in
  let first_error = ref None in
  let record_error exn =
    Mutex.protect mu (fun () ->
        if !first_error = None then first_error := Some exn)
  in
  let t0 = Timing.now () in
  (* Callers hold [mu]. *)
  let pin_locked q e =
    Code_cache.pin cache e;
    q.q_pinned <- e :: q.q_pinned
  in
  let unpin_all_locked q =
    q.q_done <- true;
    (* claims first: release may dispose an over-cap instance, which must
       happen while its entry is still pinned-or-live *)
    List.iter (fun (e, cm) -> Code_cache.release cache e cm) q.q_claims;
    q.q_claims <- [];
    List.iter (fun e -> Code_cache.unpin cache e) q.q_pinned;
    q.q_pinned <- []
  in
  (* Foreground lookup-or-compile. Cross-domain dedup and the
     pin-with-lookup atomicity both live in the cache now (per-shard
     in-flight table + [~pin]); the pool just records the pin for the
     end-of-query unpin. [stats:false] keeps the lookup out of the
     hit/miss counters (Static mode's semantics are "no cache"). *)
  let get_entry ?(stats = true) q view ~backend ~name plan =
    let e, hit =
      Code_cache.get_or_compile cache view ~backend ~params:q.q_params ~stats
        ~pin:true ~name plan
    in
    Mutex.protect mu (fun () -> q.q_pinned <- e :: q.q_pinned);
    (e, hit)
  in
  (* Background compile body, run on a compile domain. The compiling
     domain holds a creation pin across the insert so the entry cannot be
     evicted-and-freed before waiters pin it. *)
  let bg_compile ~backend ~params ~name plan k view =
    let e =
      Code_cache.compile_uncached cache view ~backend ~params ~name plan
    in
    Mutex.protect mu (fun () ->
        Code_cache.pin cache e;
        Code_cache.insert cache k e;
        let waiters =
          match Hashtbl.find_opt pending k with Some w -> !w | None -> []
        in
        Hashtbl.remove pending k;
        List.iter
          (fun q ->
            (* a query that drained on tier 0 must not pin (nobody would
               unpin) nor park a swap *)
            if not q.q_done then begin
              pin_locked q e;
              Atomic.set q.q_swap (Some (k.Code_cache.ck_backend, e))
            end)
          waiters;
        Code_cache.unpin cache e)
  in
  let submit_bg q ~backend ~params ~name plan k =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt pending k with
        | Some waiters -> waiters := q :: !waiters
        | None ->
            Hashtbl.replace pending k (ref [ q ]);
            Queue.push (bg_compile ~backend ~params ~name plan k) compile_jobs;
            Condition.signal compile_cv)
  in
  (* The observation-driven tier controller, consulted after each quantum
     in reopt mode. One upgrade in flight at a time: the next decision
     waits until the parked swap is consumed, so a second upgrade (e.g.
     directemit -> cranelift) only triggers once the first tier's own
     observed rate still leaves a paying candidate. An already-resident
     stronger module costs nothing to adopt, so it is priced at zero. *)
  let consider_upgrade q view ex =
    if (not q.q_upgrading) && not (Exec.finished ex) then
      match Exec.observed_cpr ex with
      | None -> ()
      | Some cpr -> (
          let rows_remaining = Exec.rows_remaining ex in
          if rows_remaining > 0 then
            let cands =
              List.map
                (fun (nm, b) ->
                  (* a rung that cannot bind parameter holes falls back to
                     compiling the exact whole plan (per-query keyed) —
                     observed work justified spending real compile time, so
                     the strong back-ends stay reachable *)
                  let plan, params =
                    if
                      Array.length q.q_params > 0
                      && not (Qcomp_backend.Backend.supports_params b)
                    then (q.q_exact, [||])
                    else (q.q_plan, q.q_params)
                  in
                  let k = Code_cache.key view ~backend:b plan in
                  let compile_s =
                    match Code_cache.find_nostat cache k with
                    | Some _ -> 0.0
                    | None ->
                        Costmodel.compile_seconds ~backend:nm
                          (Exec.ir_module ex)
                  in
                  (nm, b, k, plan, params, compile_s))
                (Engine.stronger_than view q.q_cur_tier)
            in
            match
              Costmodel.best_upgrade ~cur:q.q_cur_tier ~cpr ~rows_remaining
                (List.map (fun (nm, _, _, _, _, c) -> (nm, c)) cands)
            with
            | None -> ()
            | Some (nm, _) ->
                let _, backend, k, plan, params, _ =
                  List.find (fun (n, _, _, _, _, _) -> String.equal n nm) cands
                in
                q.q_upgrading <- true;
                let cached =
                  Mutex.protect mu (fun () ->
                      match Code_cache.find cache k with
                      | Some e ->
                          pin_locked q e;
                          Some e
                      | None -> None)
                in
                (match cached with
                | Some e -> Atomic.set q.q_swap (Some (nm, e))
                | None -> submit_bg q ~backend ~params ~name:q.q_name plan k))
  in
  (* Execute [q] to completion starting on [e]'s module, hot-swapping at a
     quantum boundary if a background compile parks a stronger one. *)
  let run_exec q view sched (e : Code_cache.entry) =
    let cq, cm, fresh =
      Code_cache.force cache view ~params:q.q_params ~claim:true e
    in
    q.q_claims <- (e, cm) :: q.q_claims;
    if fresh && Array.length q.q_params > 0 then
      q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
    let ex = Exec.start ?sched view cq cm in
    Fun.protect ~finally:(fun () -> Exec.dispose ex) @@ fun () ->
    let reopt = config.reopt && config.mode = Tiered in
    let rec loop () =
      (match Atomic.exchange q.q_swap None with
      | Some (nm, se) when not (Exec.finished ex) ->
          let _, scm, sfresh =
            Code_cache.force cache view ~params:q.q_params ~claim:true se
          in
          q.q_claims <- (se, scm) :: q.q_claims;
          if sfresh && Array.length q.q_params > 0 then
            q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
          Exec.swap ex scm;
          q.q_cur_tier <- nm;
          q.q_tiers <- nm :: q.q_tiers;
          q.q_upgrading <- false;
          if q.q_switch_s = None then
            q.q_switch_s <- Some (Timing.now () -. t0 -. q.q_start)
      | _ -> ());
      match Exec.step ex ~morsel:config.morsel with
      | `Done ->
          if q.q_first_s = None then
            q.q_first_s <- Some (Timing.now () -. t0 -. q.q_arrival)
      | `Ran _ ->
          if q.q_first_s = None then
            q.q_first_s <- Some (Timing.now () -. t0 -. q.q_arrival);
          if reopt then consider_upgrade q view ex;
          loop ()
    in
    loop ();
    let r = Exec.result ex in
    let tier0, tier1 =
      match Exec.swapped_at ex with
      | Some at -> (at, Exec.quanta ex - at)
      | None ->
          if q.q_started_tier0 then (Exec.quanta ex, 0) else (0, Exec.quanta ex)
    in
    let finish = Timing.now () -. t0 in
    let qm =
      {
        Report.qm_name = q.q_name;
        qm_fp = Fingerprint.plan q.q_plan;
        qm_backend = q.q_cur_tier;
        qm_arrival = q.q_arrival;
        qm_start = q.q_start;
        qm_finish = finish;
        qm_compile_s = q.q_compile_s;
        qm_cache_hit = q.q_cache_hit;
        qm_switch_s = q.q_switch_s;
        qm_quanta_tier0 = tier0;
        qm_quanta_tier1 = tier1;
        qm_tiers = List.rev q.q_tiers;
        qm_exec_cycles = r.Engine.exec_cycles;
        qm_rows = r.Engine.output_count;
        qm_checksum =
          (* with intra-query lanes the barrier merge emits rows in lane
             order, not sequential insert order: checksum the sorted
             multiset so the sum is lane-count-invariant *)
          (if config.intra > 1 then
             Engine.checksum (List.sort compare r.Engine.rows)
           else Engine.checksum r.Engine.rows);
        qm_tenant = q.q_tenant;
        qm_first_s =
          (match q.q_first_s with
          | Some s -> s
          | None -> finish -. q.q_arrival);
      }
    in
    Mutex.protect mu (fun () ->
        unpin_all_locked q;
        done_q := qm :: !done_q)
  in
  (* Tier-0 start on interpreter bytecode (shared by the static-estimate
     and observation-driven Tiered paths). *)
  let start_tier0 q view =
    let ie, ihit =
      get_entry q view ~backend:Engine.interpreter ~name:q.q_name q.q_plan
    in
    if not ihit then q.q_compile_s <- ie.Code_cache.ce_compile_s;
    q.q_started_tier0 <- true;
    q.q_cur_tier <- "interpreter";
    q.q_tiers <- [ "interpreter" ];
    ie
  in
  let exec_query q view sched =
    q.q_start <- Timing.now () -. t0;
    match config.mode with
    | Static backend ->
        (* no cache semantics: charge the full modelled compile every time
           (the module itself is memoized host-side) and keep the lookups
           out of the hit/miss stats — a printed hit-rate would be a lie *)
        let e, _hit =
          get_entry ~stats:false q view ~backend ~name:q.q_name q.q_plan
        in
        q.q_cur_tier <- Qcomp_backend.Backend.name backend;
        q.q_tiers <- [ q.q_cur_tier ];
        q.q_compile_s <- e.Code_cache.ce_compile_s;
        run_exec q view sched e
    | Cached ->
        let bname, backend = Engine.adaptive_backend view q.q_plan in
        let bname, backend =
          (* parameterized shapes route to the strongest rung that can
             bind holes; others would recompile per literal vector *)
          if Array.length q.q_params > 0 then
            Engine.clamp_param_capable view bname
          else (bname, backend)
        in
        q.q_cur_tier <- bname;
        q.q_tiers <- [ bname ];
        let e, hit = get_entry q view ~backend ~name:q.q_name q.q_plan in
        q.q_cache_hit <- hit;
        if not hit then q.q_compile_s <- e.Code_cache.ce_compile_s;
        run_exec q view sched e
    | Tiered when config.reopt -> (
        (* observation-driven: no pre-execution estimate. Start on the
           strongest already-resident rung (free), else on interpreter
           bytecode; the controller upgrades from observed cycles. The
           ladder probe is stat-free — scanning every rung per query would
           otherwise drown the hit-rate in bookkeeping misses. *)
        let resident =
          List.find_map
            (fun (nm, b) ->
              if String.equal nm "interpreter" then None
              else
                (* non-param rungs cache the whole-plan fallback under the
                   exact plan's key *)
                let plan =
                  if
                    Array.length q.q_params > 0
                    && not (Qcomp_backend.Backend.supports_params b)
                  then q.q_exact
                  else q.q_plan
                in
                let k = Code_cache.key view ~backend:b plan in
                Mutex.protect mu (fun () ->
                    match Code_cache.find_nostat cache k with
                    | Some e ->
                        pin_locked q e;
                        Some (nm, e)
                    | None -> None))
            (List.rev (Engine.tier_ladder view))
        in
        match resident with
        | Some (nm, e) ->
            q.q_cache_hit <- true;
            q.q_cur_tier <- nm;
            q.q_tiers <- [ nm ];
            run_exec q view sched e
        | None ->
            let ie = start_tier0 q view in
            run_exec q view sched ie)
    | Tiered -> (
        let bname, backend = Engine.adaptive_backend view q.q_plan in
        let bname, backend =
          if Array.length q.q_params > 0 then
            Engine.clamp_param_capable view bname
          else (bname, backend)
        in
        if bname = "interpreter" then begin
          (* nothing stronger to tier to: serve straight from bytecode *)
          let e, hit =
            get_entry q view ~backend:Engine.interpreter ~name:q.q_name
              q.q_plan
          in
          q.q_cache_hit <- hit;
          q.q_started_tier0 <- true;
          q.q_cur_tier <- "interpreter";
          q.q_tiers <- [ "interpreter" ];
          if not hit then q.q_compile_s <- e.Code_cache.ce_compile_s;
          run_exec q view sched e
        end
        else
          let k = Code_cache.key view ~backend q.q_plan in
          let strong =
            Mutex.protect mu (fun () ->
                match Code_cache.find cache k with
                | Some e ->
                    pin_locked q e;
                    Some e
                | None -> None)
          in
          match strong with
          | Some e ->
              (* strong code already cached: start on it outright *)
              q.q_cache_hit <- true;
              q.q_cur_tier <- bname;
              q.q_tiers <- [ bname ];
              run_exec q view sched e
          | None ->
              (* tier 0 now, strong tier on the background compile pool *)
              let ie = start_tier0 q view in
              submit_bg q ~backend ~params:q.q_params ~name:q.q_name q.q_plan k;
              run_exec q view sched ie)
  in
  (* The feeder releases requests open-loop at their arrival stamps: shed
     or admit at the stamp, independent of worker progress. Sleeping
     between releases (instead of workers polling a pre-filled queue) is
     what lets idle workers block. *)
  let feeder () =
    let ordered =
      List.stable_sort
        (fun a b -> compare a.rq_arrival b.rq_arrival)
        requests
    in
    List.iter
      (fun rq ->
        let dt = t0 +. rq.rq_arrival -. Timing.now () in
        if dt > 0.0 then Unix.sleepf dt;
        let shape, params = normalize_query config rq.rq_plan in
        let q =
          {
            q_name = rq.rq_name;
            q_plan = shape;
            q_params = params;
            q_exact = rq.rq_plan;
            q_arrival = rq.rq_arrival;
            q_tenant = rq.rq_tenant;
            q_start = 0.0;
            q_first_s = None;
            q_compile_s = 0.0;
            q_cache_hit = false;
            q_cur_tier = "";
            q_tiers = [];
            q_upgrading = false;
            q_swap = Atomic.make None;
            q_switch_s = None;
            q_started_tier0 = false;
            q_pinned = [];
            q_claims = [];
            q_done = false;
          }
        in
        Mutex.protect mu (fun () ->
            if Admission.offer admission ~tenant:rq.rq_tenant q then
              Condition.signal work_cv
            else
              sheds :=
                {
                  Report.sh_name = rq.rq_name;
                  sh_tenant = rq.rq_tenant;
                  sh_arrival = rq.rq_arrival;
                }
                :: !sheds))
      ordered;
    Mutex.protect mu (fun () ->
        feeder_done := true;
        Condition.broadcast work_cv)
  in
  (* Workers block on [work_cv] while the queue is empty — no mutex
     polling, no spinning: an idle pool burns no host CPU. They exit when
     the feeder has finished and the queue has drained. *)
  let worker () =
    let view = Engine.domain_view db in
    (* intra-query lanes nest inside the worker: its queries fan morsels
       out over [intra] further domains at parallelizable pipeline bodies *)
    let sched =
      if config.intra > 1 then
        Some (Morsel_sched.create ~parallel:true view ~lanes:config.intra)
      else None
    in
    let release () =
      Option.iter Morsel_sched.release sched;
      Qcomp_vm.Emu.release_context view.Engine.emu
    in
    let rec loop () =
      Mutex.lock mu;
      let rec next () =
        match Admission.take admission with
        | Some q ->
            Mutex.unlock mu;
            Some q
        | None ->
            if !feeder_done then begin
              Mutex.unlock mu;
              None
            end
            else begin
              Condition.wait work_cv mu;
              next ()
            end
      in
      match next () with
      | None -> ()
      | Some q ->
          (try exec_query q view sched
           with exn ->
             record_error exn;
             Mutex.protect mu (fun () -> unpin_all_locked q));
          loop ()
    in
    Fun.protect ~finally:release loop
  in
  (* Compile domains drain the background queue to empty even after the
     workers finish, so a run leaves the cache in the same warmed state the
     simulator would (every submitted compile lands). *)
  let compile_worker () =
    let view = Engine.domain_view db in
    let rec loop () =
      Mutex.lock mu;
      let rec take () =
        if not (Queue.is_empty compile_jobs) then Some (Queue.pop compile_jobs)
        else if !compile_closed then None
        else begin
          Condition.wait compile_cv mu;
          take ()
        end
      in
      match take () with
      | None -> Mutex.unlock mu
      | Some job ->
          Mutex.unlock mu;
          (try job view with exn -> record_error exn);
          loop ()
    in
    Fun.protect
      ~finally:(fun () -> Qcomp_vm.Emu.release_context view.Engine.emu)
      loop
  in
  let n_compile = match config.mode with Tiered -> config.compile_slots | _ -> 0 in
  let compilers = List.init n_compile (fun _ -> Domain.spawn compile_worker) in
  let feeder_d = Domain.spawn feeder in
  let workers = List.init domains (fun _ -> Domain.spawn worker) in
  Domain.join feeder_d;
  List.iter Domain.join workers;
  Mutex.protect mu (fun () ->
      compile_closed := true;
      Condition.broadcast compile_cv);
  List.iter Domain.join compilers;
  (match !first_error with Some exn -> raise exn | None -> ());
  let queries = List.rev !done_q in
  Report.assemble db cache
    ~mode:(mode_name config.mode)
    ~makespan:(Timing.now () -. t0)
    ~sheds:(List.rev !sheds)
    ~queue_peak:(Admission.peak admission)
    queries

let run ?cache db ~domains config stream =
  run_requests ?cache db ~domains config (requests_of_stream config stream)
