(** Deterministic multi-worker query serving with tiered execution.

    A serving run is one discrete-event cascade over {!Sim}'s virtual
    clock: queries arrive on a deterministic (seeded) arrival process —
    or, via {!run_requests}, on an arbitrary pre-generated timed request
    trace — pass the bounded multi-tenant {!Admission} queue (arrivals
    beyond the cap are shed, deterministically: shed decisions depend only
    on virtual-time queue occupancy), wait for one of [workers] execution
    workers, and run morsel-by-morsel through {!Exec}. Three policies:

    - {b Static}: one fixed back-end; every query pays that back-end's full
      (modelled) compile time on its worker, then executes. This is the
      paper's per-back-end compile+execute tradeoff (Table III) replayed as
      a serving policy.
    - {b Cached}: the back-end chosen by {!Qcomp_engine.Engine.adaptive_backend},
      fronted by the fingerprint-keyed {!Code_cache} — a cache hit skips
      the compile charge entirely.
    - {b Tiered}: queries start executing immediately on interpreter
      bytecode while the adaptive ("strong") back-end compiles in the
      background on a bounded compile pool; at the next morsel boundary
      after the (simulated) compile completes, the execution hot-swaps to
      the compiled code. A cache hit on the strong module starts on it
      outright. This is the Umbra/Ma-et-al. hybrid: interpreter latency to
      first result, compiled-code throughput for the bulk.

    All durations are deterministic — modelled compile seconds
    ({!Costmodel}) and emulated execution cycles — so two runs with the
    same seed produce byte-identical reports, shed sets included. Host
    wall-clock never enters the virtual timeline. *)

open Qcomp_support
open Qcomp_engine

(* The mode/config/metrics types live in {!Pool} (the parallel driver must
   not depend on this module); re-exported here so callers keep writing
   [Server.Tiered], [Server.default_config] etc. *)
type mode = Pool.mode =
  | Static of Qcomp_backend.Backend.t
  | Cached
  | Tiered

let mode_name = Pool.mode_name

type config = Pool.config = {
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
          the discrete-event driver always serves from shard layout 1 —
          sharding only pays under real parallelism *)
  intra : int;
      (** intra-query lanes: parallelizable pipeline bodies fan each
          quantum's morsels out over this many execution lanes. The
          discrete-event driver models them (lanes run sequentially,
          virtual time advances by the max over lanes), so speedups are
          deterministic; 1 = serial bodies *)
}

let default_config = Pool.default_config

(* The metric and report records have exactly one declaration, in
   {!Report}; both drivers alias it so the shapes can never drift. *)
type query_metrics = Report.query_metrics

let qm_latency = Report.qm_latency

type request = Pool.request = {
  rq_name : string;
  rq_plan : Qcomp_plan.Algebra.t;
  rq_arrival : float;  (** seconds after run start *)
  rq_tenant : int;
}

type report = Report.t

(* ---------------- the event machine ---------------- *)

type qstate = {
  q_name : string;
  q_plan : Qcomp_plan.Algebra.t;  (** the shape when parameterized *)
  q_params : Qcomp_backend.Artifact.param_value array;
      (** this query's literal vector; [[||]] for exact plans *)
  q_exact : Qcomp_plan.Algebra.t;
      (** the original plan with literals in place — what rungs that
          cannot bind parameter holes compile (whole-plan fallback) *)
  q_arrival : float;
  q_tenant : int;
  mutable q_start : float;
  mutable q_first_s : float option;  (** enqueue -> first-row, once known *)
  mutable q_compile_s : float;
  mutable q_cache_hit : bool;
  (* the back-end currently executing the query's quanta, and the full
     tier path in reverse *)
  mutable q_cur_tier : string;
  mutable q_tiers : string list;
  (* an upgrade (background compile or parked swap) is in flight; the
     controller makes no new decision until the swap is consumed *)
  mutable q_upgrading : bool;
  (* a finished background compile parks the (tier name, entry) here; the
     next quantum event applies the swap before running *)
  mutable q_swap_ready : (string * Code_cache.entry) option;
  mutable q_switch_s : float option;
  mutable q_started_tier0 : bool;  (** first quantum ran interpreter code *)
  (* every cache entry this query touches is pinned until it finishes, so
     eviction can never free code that is still executing or parked for a
     hot-swap *)
  mutable q_pinned : Code_cache.entry list;
  (* bound instances this query claimed via [force ~claim:true]; released
     on finish so literal churn by interleaved queries cannot trim away a
     module mid-execution *)
  mutable q_claims : (Code_cache.entry * Qcomp_backend.Backend.compiled_module) list;
  mutable q_done : bool;
}

(** Serve the timed [requests] as one deterministic discrete-event
    cascade: each request is offered to the admission queue at its virtual
    arrival time (shed at the cap — deterministically, since occupancy is
    a pure function of the event history), dequeued tenant-fair, executed
    morsel-by-morsel. *)
let run_requests_events ?cache db config requests =
  Pool.validate_config ~driver:"Server.run" config;
  let sim = Sim.create () in
  let cache =
    match cache with
    | Some c -> c
    | None -> Code_cache.create ~capacity:config.cache_capacity
  in
  let admission : qstate Admission.t =
    Admission.create ?cap:config.admission_cap ~tenants:config.tenants ()
  in
  (* one simulated lane pool for the whole run: quanta never overlap in
     virtual time, so every execution can share the lanes' Emu contexts;
     released once the cascade ends *)
  let sched =
    if config.intra > 1 then
      Some (Morsel_sched.create ~parallel:false db ~lanes:config.intra)
    else None
  in
  let sheds = ref [] in
  let free_workers = ref config.workers in
  let free_slots = ref config.compile_slots in
  let compile_jobs = Queue.create () in
  (* in-flight background compiles: key -> callbacks awaiting the entry *)
  let pending : (Code_cache.key, (Code_cache.entry -> unit) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let done_q = ref [] in
  let pin_entry q e =
    Code_cache.pin cache e;
    q.q_pinned <- e :: q.q_pinned
  in
  let finish_metrics q (ex : Exec.t) =
    q.q_done <- true;
    (* claims before pins: release may dispose an over-cap instance, which
       must happen while its entry is still live *)
    List.iter (fun (e, cm) -> Code_cache.release cache e cm) q.q_claims;
    q.q_claims <- [];
    List.iter (fun e -> Code_cache.unpin cache e) q.q_pinned;
    q.q_pinned <- [];
    let r = Exec.result ex in
    (* rows are materialized; recycle the execution's linear-memory blocks
       (state block, tuple buffers, hash-table arenas) *)
    Exec.dispose ex;
    let tier0, tier1 =
      match Exec.swapped_at ex with
      | Some at -> (at, Exec.quanta ex - at)
      | None ->
          if q.q_started_tier0 then (Exec.quanta ex, 0) else (0, Exec.quanta ex)
    in
    let finish = Sim.now sim in
    done_q :=
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
      :: !done_q
  in
  (* the compile pool: bounded slots draining a FIFO of jobs; the host
     compilation runs when the slot is acquired, but the result becomes
     visible (cache insert + waiter callbacks) only at the simulated
     completion event *)
  let rec pump_compiles () =
    while !free_slots > 0 && not (Queue.is_empty compile_jobs) do
      decr free_slots;
      let job = Queue.pop compile_jobs in
      job ()
    done
  and submit_bg_compile ~backend ~params ~name plan (k : Code_cache.key)
      (on_ready : Code_cache.entry -> unit) =
    match Hashtbl.find_opt pending k with
    | Some waiters -> waiters := on_ready :: !waiters
    | None ->
        let waiters = ref [ on_ready ] in
        Hashtbl.replace pending k waiters;
        Queue.push
          (fun () ->
            let e =
              Code_cache.compile_uncached cache db ~backend ~params ~name plan
            in
            Sim.after sim e.Code_cache.ce_compile_s (fun () ->
                Code_cache.insert cache k e;
                Hashtbl.remove pending k;
                List.iter (fun f -> f e) (List.rev !waiters);
                incr free_slots;
                pump_compiles ()))
          compile_jobs;
        pump_compiles ()
  in
  let rec dispatch () =
    if !free_workers > 0 then
      match Admission.take admission with
      | None -> ()
      | Some q ->
          decr free_workers;
          start_query q;
          dispatch ()
  and start_tier0 q =
    (* tier-0 start on interpreter bytecode, shared by the static-estimate
       and observation-driven Tiered paths; returns the entry and the
       foreground translate charge *)
    let ie, ihit =
      Code_cache.get_or_compile cache db ~backend:Engine.interpreter
        ~params:q.q_params ~name:q.q_name q.q_plan
    in
    pin_entry q ie;
    let icost = if ihit then 0.0 else ie.Code_cache.ce_compile_s in
    q.q_compile_s <- icost;
    q.q_started_tier0 <- true;
    q.q_cur_tier <- "interpreter";
    q.q_tiers <- [ "interpreter" ];
    (ie, icost)
  and start_query q =
    q.q_start <- Sim.now sim;
    match config.mode with
    | Static backend ->
        (* no cache semantics: charge the full modelled compile every time
           (the module itself is memoized host-side, which changes no
           simulated duration — the code is identical) and keep the lookup
           out of the hit/miss stats, where a hit would belie the charge *)
        let k = Code_cache.key db ~backend q.q_plan in
        let e =
          match Code_cache.find_nostat cache k with
          | Some e -> e
          | None ->
              let e =
                Code_cache.compile_uncached cache db ~backend ~name:q.q_name
                  q.q_plan
              in
              Code_cache.insert cache k e;
              e
        in
        pin_entry q e;
        q.q_cur_tier <- Qcomp_backend.Backend.name backend;
        q.q_tiers <- [ q.q_cur_tier ];
        q.q_compile_s <- e.Code_cache.ce_compile_s;
        Sim.after sim e.Code_cache.ce_compile_s (fun () -> begin_exec q e)
    | Cached ->
        let bname, backend = Engine.adaptive_backend db q.q_plan in
        let bname, backend =
          (* parameterized shapes route to the strongest rung that can
             bind holes; others would recompile per literal vector *)
          if Array.length q.q_params > 0 then
            Engine.clamp_param_capable db bname
          else (bname, backend)
        in
        let k = Code_cache.key db ~backend q.q_plan in
        q.q_cur_tier <- bname;
        q.q_tiers <- [ bname ];
        (match Code_cache.find cache k with
        | Some e ->
            pin_entry q e;
            q.q_cache_hit <- true;
            begin_exec q e
        | None ->
            let e =
              Code_cache.compile_uncached cache db ~backend ~params:q.q_params
                ~name:q.q_name q.q_plan
            in
            Code_cache.insert cache k e;
            pin_entry q e;
            q.q_compile_s <- e.Code_cache.ce_compile_s;
            Sim.after sim e.Code_cache.ce_compile_s (fun () -> begin_exec q e))
    | Tiered when config.reopt -> (
        (* observation-driven: no pre-execution estimate. Start on the
           strongest already-resident rung (free), else on interpreter
           bytecode; the controller upgrades from observed cycles. The
           ladder probe is stat-free. *)
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
                let k = Code_cache.key db ~backend:b plan in
                match Code_cache.find_nostat cache k with
                | Some e ->
                    pin_entry q e;
                    Some (nm, e)
                | None -> None)
            (List.rev (Engine.tier_ladder db))
        in
        match resident with
        | Some (nm, e) ->
            q.q_cache_hit <- true;
            q.q_cur_tier <- nm;
            q.q_tiers <- [ nm ];
            begin_exec q e
        | None ->
            let ie, icost = start_tier0 q in
            Sim.after sim icost (fun () -> begin_exec q ie))
    | Tiered -> (
        let bname, backend = Engine.adaptive_backend db q.q_plan in
        let bname, backend =
          if Array.length q.q_params > 0 then
            Engine.clamp_param_capable db bname
          else (bname, backend)
        in
        if bname = "interpreter" then begin
          (* nothing stronger to tier to: serve straight from bytecode *)
          let e, hit =
            Code_cache.get_or_compile cache db ~backend:Engine.interpreter
              ~params:q.q_params ~name:q.q_name q.q_plan
          in
          pin_entry q e;
          q.q_cache_hit <- hit;
          q.q_started_tier0 <- true;
          q.q_cur_tier <- "interpreter";
          q.q_tiers <- [ "interpreter" ];
          if hit then begin_exec q e
          else begin
            q.q_compile_s <- e.Code_cache.ce_compile_s;
            Sim.after sim e.Code_cache.ce_compile_s (fun () -> begin_exec q e)
          end
        end
        else
          let k = Code_cache.key db ~backend q.q_plan in
          match Code_cache.find cache k with
          | Some e ->
              (* strong code already cached: start on it outright *)
              pin_entry q e;
              q.q_cache_hit <- true;
              q.q_cur_tier <- bname;
              q.q_tiers <- [ bname ];
              begin_exec q e
          | None ->
              (* tier 0 now, strong tier in the background *)
              let ie, icost = start_tier0 q in
              submit_bg_compile ~backend ~params:q.q_params ~name:q.q_name
                q.q_plan k (fun e ->
                  (* the query may have drained on tier 0 before the strong
                     compile landed; a done query must not pin (nobody
                     would unpin) nor park a swap *)
                  if not q.q_done then begin
                    pin_entry q e;
                    q.q_swap_ready <- Some (k.Code_cache.ck_backend, e)
                  end);
              Sim.after sim icost (fun () -> begin_exec q ie))
  and begin_exec q (e : Code_cache.entry) =
    let cq, cm, fresh =
      Code_cache.force cache db ~params:q.q_params ~claim:true e
    in
    q.q_claims <- (e, cm) :: q.q_claims;
    let ex = Exec.start ?sched db cq cm in
    if fresh && Array.length q.q_params > 0 then begin
      (* a fresh parameter bind is charged on the virtual clock, priced
         near-free next to any back-end compile *)
      q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
      Sim.after sim Costmodel.bind_seconds (fun () -> quantum q ex)
    end
    else quantum q ex
  (* The observation-driven tier controller, consulted at each morsel
     boundary in reopt mode (the swap, if any, was applied just before, so
     a fresh tier starts with no observation and sits out one quantum).
     One upgrade in flight at a time; an already-resident stronger module
     is priced at zero compile seconds and parks immediately. *)
  and consider_upgrade q ex =
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
                  let k = Code_cache.key db ~backend:b plan in
                  let compile_s =
                    match Code_cache.find_nostat cache k with
                    | Some _ -> 0.0
                    | None ->
                        Costmodel.compile_seconds ~backend:nm
                          (Exec.ir_module ex)
                  in
                  (nm, b, k, plan, params, compile_s))
                (Engine.stronger_than db q.q_cur_tier)
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
                (match Code_cache.find cache k with
                | Some e ->
                    pin_entry q e;
                    q.q_swap_ready <- Some (nm, e)
                | None ->
                    submit_bg_compile ~backend ~params ~name:q.q_name plan k
                      (fun e ->
                        if not q.q_done then begin
                          pin_entry q e;
                          q.q_swap_ready <- Some (nm, e)
                        end)))
  and quantum q ex =
    (* entering a quantum event means the previous quantum just completed:
       if it was the first, its output morsel marks first-row latency *)
    if q.q_first_s = None && Exec.quanta ex > 0 then
      q.q_first_s <- Some (Sim.now sim -. q.q_arrival);
    (match q.q_swap_ready with
    | Some (nm, e) when not (Exec.finished ex) ->
        let _, cm, sfresh =
          Code_cache.force cache db ~params:q.q_params ~claim:true e
        in
        q.q_claims <- (e, cm) :: q.q_claims;
        if sfresh && Array.length q.q_params > 0 then
          q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
        Exec.swap ex cm;
        q.q_cur_tier <- nm;
        q.q_tiers <- nm :: q.q_tiers;
        q.q_upgrading <- false;
        if q.q_switch_s = None then
          q.q_switch_s <- Some (Sim.now sim -. q.q_start);
        q.q_swap_ready <- None
    | _ -> ());
    if config.reopt && config.mode = Tiered then consider_upgrade q ex;
    match Exec.step ex ~morsel:config.morsel with
    | `Done ->
        finish_metrics q ex;
        incr free_workers;
        dispatch ()
    | `Ran dc -> Sim.after sim (Engine.cycles_to_seconds dc) (fun () -> quantum q ex)
  in
  (* each request is offered at its virtual arrival time: shed-or-admit
     depends only on queue occupancy at that instant, so same trace, same
     cap -> same sheds, byte-identical reports *)
  let offer rq =
    let shape, params = Pool.normalize_query config rq.rq_plan in
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
        q_swap_ready = None;
        q_switch_s = None;
        q_started_tier0 = false;
        q_pinned = [];
        q_claims = [];
        q_done = false;
      }
    in
    Sim.at sim rq.rq_arrival (fun () ->
        if Admission.offer admission ~tenant:rq.rq_tenant q then dispatch ()
        else
          sheds :=
            {
              Report.sh_name = rq.rq_name;
              sh_tenant = rq.rq_tenant;
              sh_arrival = rq.rq_arrival;
            }
            :: !sheds)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Morsel_sched.release sched)
    (fun () ->
      List.iter offer requests;
      Sim.run sim);
  let queries = List.rev !done_q in
  let makespan =
    List.fold_left (fun a q -> Float.max a q.Report.qm_finish) 0.0 queries
  in
  Report.assemble db cache ~mode:(mode_name config.mode) ~makespan
    ~sheds:(List.rev !sheds)
    ~queue_peak:(Admission.peak admission)
    queries

let run_events ?cache db config stream =
  run_requests_events ?cache db config (Pool.requests_of_stream config stream)

(** Serve the timed [requests]. Without [parallel], one deterministic
    discrete-event cascade over the virtual clock (sheds included). With
    [~parallel:domains], open-loop wall-clock serving on that many worker
    domains ({!Pool.run_requests}). *)
let run_requests ?cache ?parallel db config requests =
  match parallel with
  | None -> run_requests_events ?cache db config requests
  | Some domains -> Pool.run_requests ?cache db ~domains config requests

(** Serve [stream]. Without [parallel], one deterministic discrete-event
    cascade over the virtual clock. With [~parallel:domains], the queries
    run on that many real worker domains ({!Pool.run}): rows/checksums are
    unchanged, timing metrics become wall-clock. Either way the summary is
    assembled by {!Report.assemble}. *)
let run ?cache ?parallel db config stream =
  match parallel with
  | None -> run_events ?cache db config stream
  | Some domains -> Pool.run ?cache db ~domains config stream

(* ---------------- reporting (shared shape lives in {!Report}) ------- *)

let pp_query = Report.pp_query
let pp_report = Report.pp

(** Deterministic repeated-query stream: [n] draws over [queries] with a
    seeded bias towards a hot subset, so a serving cache has something to
    hit. *)
let make_stream ~seed ~n queries =
  if queries = [] then []
  else begin
    let rng = Rng.create seed in
    let arr = Array.of_list queries in
    let hot = max 1 (Array.length arr / 4) in
    List.init n (fun _ ->
        (* 70% of traffic over the hot quarter of the plan set *)
        if Rng.int rng 10 < 7 then arr.(Rng.int rng hot)
        else arr.(Rng.int rng (Array.length arr)))
  end
