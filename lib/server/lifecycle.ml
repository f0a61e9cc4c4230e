(** The per-query serving lifecycle, shared by both drivers.

    A query's life is the same whichever driver serves it: the mode picks
    its first tier (Static's fixed back-end; for Cached and Tiered the
    strongest resident rung, else the prior's pick priced by
    {!Qcomp_engine.Engine.cheapest_rung}), foreground lookups pin the
    entries it runs, a morsel boundary applies a parked swap and (with
    [reopt]) re-prices the ladder from observed cycles before the next
    {!Exec.step}, and finishing releases its claims and pins and folds the
    {!Report.query_metrics}. What differs between the discrete-event
    scheduler ({!Server}) and the domain pool ({!Pool}) is only the clock,
    how a delay is waited out, the locking and where a background compile
    runs; a driver passes those in as a {!driver} record. *)

open Qcomp_support
open Qcomp_engine

module Config = struct
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
        (** Tiered only: re-price the ladder from observed cycles-per-row
            at every morsel boundary (including second upgrades); without
            it a query keeps the prior's pick *)
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

  type request = {
    rq_name : string;
    rq_plan : Qcomp_plan.Algebra.t;
    rq_arrival : float;  (** seconds after run start *)
    rq_tenant : int;
  }

  let requests_of_stream config stream =
    let rng = Rng.create config.seed in
    let t = ref 0.0 in
    List.map
      (fun (name, plan) ->
        if config.mean_gap_s > 0.0 then
          t := !t +. (-.config.mean_gap_s *. log (1.0 -. Rng.float rng));
        { rq_name = name; rq_plan = plan; rq_arrival = !t; rq_tenant = 0 })
      stream
end

open Config

type driver = {
  now : unit -> float;
  after : float -> (unit -> unit) -> unit;
  locked : 'a. (unit -> 'a) -> 'a;
  submit : (Engine.db -> Code_cache.entry) -> (Code_cache.entry -> unit) -> unit;
}

type query = {
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
     tier path in reverse; only the serving worker writes these *)
  mutable q_cur_tier : string;
  mutable q_tiers : string list;
  (* an upgrade (background compile or parked swap) is in flight; the
     controller makes no new decision until the swap is consumed *)
  mutable q_upgrading : bool;
  (* a finished background compile parks the (tier name, entry) here,
     already pinned for this query; the next morsel boundary applies it *)
  q_swap : (string * Code_cache.entry) option Atomic.t;
  mutable q_switch_s : float option;
  mutable q_started_tier0 : bool;  (** first quantum ran interpreter code *)
  (* every cache entry this query touches is pinned until it finishes, so
     eviction can never free code that is still executing or parked for a
     hot-swap; written under the driver lock *)
  mutable q_pinned : Code_cache.entry list;
  (* bound instances this query claimed via [force ~claim:true]; released
     on finish so literal churn by interleaved queries cannot trim away a
     module mid-execution *)
  mutable q_claims : (Code_cache.entry * Qcomp_backend.Backend.compiled_module) list;
  mutable q_exec : Exec.t option;
  mutable q_done : bool;  (** written and read under the driver lock *)
}

type t = {
  db : Engine.db;
  cache : Code_cache.t;
  config : config;
  drv : driver;
  (* in-flight background compiles: key -> callbacks awaiting the entry *)
  pending : (Code_cache.key, (Code_cache.entry -> unit) list ref) Hashtbl.t;
  mutable completed : Report.query_metrics list;
  mutable sheds : Report.shed list;
}

let create ~db ~cache config drv =
  { db; cache; config; drv; pending = Hashtbl.create 16; completed = []; sheds = [] }

(* Caller holds the driver lock. *)
let pin_locked t q e =
  Code_cache.pin t.cache e;
  q.q_pinned <- e :: q.q_pinned

(* Caller holds the driver lock. A query that drained before the entry
   arrived must not pin it (nobody would unpin) nor park a swap. *)
let park_locked t q nm e =
  if not q.q_done then begin
    pin_locked t q e;
    Atomic.set q.q_swap (Some (nm, e))
  end

(* Caller holds the driver lock. One background compile per key: later
   submitters join its waiters. The driver runs [compile] on its compile
   pool and calls back once the entry may become visible; the landing
   holds a creation pin across the insert so another domain's eviction
   cannot free the entry before its waiters pin it. *)
let submit_locked t ~backend ~params ~name plan k on_ready =
  match Hashtbl.find_opt t.pending k with
  | Some waiters -> waiters := on_ready :: !waiters
  | None ->
      let waiters = ref [ on_ready ] in
      Hashtbl.replace t.pending k waiters;
      t.drv.submit
        (fun db -> Code_cache.compile_uncached t.cache db ~backend ~params ~name plan)
        (fun e ->
          t.drv.locked (fun () ->
              Code_cache.pin t.cache e;
              Code_cache.insert t.cache k e;
              Hashtbl.remove t.pending k;
              List.iter (fun f -> f e) (List.rev !waiters);
              Code_cache.unpin t.cache e))

let offer t admission rq =
  let shape, params = normalize_query t.config rq.rq_plan in
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
      q_exec = None;
      q_done = false;
    }
  in
  Admission.offer admission ~tenant:rq.rq_tenant q
  || begin
       t.sheds <-
         {
           Report.sh_name = rq.rq_name;
           sh_tenant = rq.rq_tenant;
           sh_arrival = rq.rq_arrival;
         }
         :: t.sheds;
       false
     end

let release t q =
  let ex =
    t.drv.locked (fun () ->
        q.q_done <- true;
        (* claims before pins: release may dispose an over-cap instance,
           which must happen while its entry is still live *)
        List.iter (fun (e, cm) -> Code_cache.release t.cache e cm) q.q_claims;
        q.q_claims <- [];
        List.iter (fun e -> Code_cache.unpin t.cache e) q.q_pinned;
        q.q_pinned <- [];
        let ex = q.q_exec in
        q.q_exec <- None;
        ex)
  in
  (* recycle the execution's linear-memory blocks (state block, tuple
     buffers, hash-table arenas); [finish] has read the rows already *)
  Option.iter Exec.dispose ex

let finish t q ex =
  let r = Exec.result ex in
  release t q;
  let tier0, tier1 =
    match Exec.swapped_at ex with
    | Some at -> (at, Exec.quanta ex - at)
    | None -> if q.q_started_tier0 then (Exec.quanta ex, 0) else (0, Exec.quanta ex)
  in
  let finish = t.drv.now () in
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
        (if t.config.intra > 1 then Engine.checksum (List.sort compare r.Engine.rows)
         else Engine.checksum r.Engine.rows);
      qm_tenant = q.q_tenant;
      qm_first_s = (match q.q_first_s with Some s -> s | None -> finish -. q.q_arrival);
    }
  in
  t.drv.locked (fun () -> t.completed <- qm :: t.completed)

let serve t ~db ?sched ?(on_done = ignore) q =
  let c = t.config and d = t.drv and cache = t.cache in
  let parameterized = Array.length q.q_params > 0 in
  (* a rung that cannot bind parameter holes compiles the exact whole plan
     (keyed per query) instead of the shape *)
  let exact_for b = parameterized && not (Qcomp_backend.Backend.supports_params b) in
  let target_of b = if exact_for b then (q.q_exact, [||]) else (q.q_plan, q.q_params) in
  (* one fingerprint per plan per query, however often the ladder is priced *)
  let shape_key = lazy (Code_cache.key db ~backend:Engine.interpreter q.q_plan)
  and exact_key = lazy (Code_cache.key db ~backend:Engine.interpreter q.q_exact) in
  let key_of b =
    { (Lazy.force (if exact_for b then exact_key else shape_key)) with
      Code_cache.ck_backend = Qcomp_backend.Backend.name b }
  in
  let enter ?(tier0 = false) nm =
    q.q_cur_tier <- nm;
    q.q_tiers <- [ nm ];
    if tier0 then q.q_started_tier0 <- true
  in
  (* foreground lookup-or-compile, pinned atomically with the lookup;
     [stats:false] keeps Static's "no cache" lookups out of the hit rate *)
  let fetch ?(stats = true) backend =
    let plan, params = target_of backend in
    let e, hit =
      Code_cache.get_or_compile cache db ~backend ~params ~stats ~pin:true
        ~name:q.q_name plan
    in
    d.locked (fun () -> q.q_pinned <- e :: q.q_pinned);
    (e, hit)
  in
  (* The rung a query starts from: the strongest resident compiled rung,
     else the prior's pick. The probe is stat-free and comes first, so only
     a query with nothing resident codegens its shape for pricing (a
     snapshot-loaded entry re-derives its codegen under its own name on
     first force). The caller's lookup of the chosen rung is what counts
     as the hit or miss. *)
  let first_rung () =
    let resident (nm, b) =
      (not (String.equal nm "interpreter"))
      && Option.is_some (Code_cache.find_nostat cache (key_of b))
    in
    match List.find_opt resident (List.rev (Engine.tier_ladder db)) with
    | Some r -> r
    | None ->
        let cq =
          Code_cache.plan_ir cache db ~fp:(Lazy.force shape_key).Code_cache.ck_fp
            ~name:q.q_name q.q_plan
        in
        Engine.adaptive_backend db q.q_plan cq.Qcomp_codegen.Codegen.modul
  in
  (* start on [e], after its foreground compile unless it was a hit *)
  let rec charged e hit =
    if hit then begin_exec e
    else begin
      q.q_compile_s <- e.Code_cache.ce_compile_s;
      d.after e.Code_cache.ce_compile_s (fun () -> begin_exec e)
    end
  and begin_exec e =
    let cq, cm, fresh = Code_cache.force cache db ~params:q.q_params ~claim:true e in
    q.q_claims <- (e, cm) :: q.q_claims;
    let ex = Exec.start ?sched db cq cm in
    q.q_exec <- Some ex;
    if fresh && parameterized then begin
      (* a fresh parameter bind is charged like a compile, priced near-free
         next to any back-end compile *)
      q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
      d.after Costmodel.bind_seconds (fun () -> quantum ex)
    end
    else quantum ex
  (* compile rung [nm] on the background pool and park it for the next
     boundary; the caller holds the driver lock and has set [q_upgrading]
     (one upgrade in flight at a time) *)
  and compile_behind nm b =
    let plan, params = target_of b in
    submit_locked t ~backend:b ~params ~name:q.q_name plan (key_of b) (park_locked t q nm)
  (* The reopt controller, consulted at each morsel boundary: re-price the
     ladder from the cycles observed on the current rung (the swap, if any,
     was applied just before, so a fresh rung sits out one quantum). A
     resident rung is priced at zero compile seconds. *)
  and consider_upgrade ex =
    if (not q.q_upgrading) && not (Exec.finished ex) then
      match Exec.observed_cpr ex with
      | None -> ()
      | Some cpr ->
          let rows_remaining = Exec.rows_remaining ex in
          if rows_remaining > 0 then begin
            let cur = q.q_cur_tier in
            let m = Exec.ir_module ex in
            let nm, b =
              Engine.cheapest_rung ~cur db
                ~interp_s:
                  (float_of_int rows_remaining *. cpr /. Costmodel.clock_hz
                  *. Costmodel.exec_rate db.Engine.target cur)
                ~compile_s:(fun nm b ->
                  match Code_cache.find_nostat cache (key_of b) with
                  | Some _ -> 0.0
                  | None -> Costmodel.compile_seconds ~backend:nm m)
            in
            if not (String.equal nm cur) then begin
              q.q_upgrading <- true;
              d.locked (fun () ->
                  match Code_cache.find cache (key_of b) with
                  | Some e -> park_locked t q nm e
                  | None -> compile_behind nm b)
            end
          end
  (* one morsel boundary: apply the parked swap, consult the controller,
     run the next quantum *)
  and quantum ex =
    (* entering a boundary means the previous quantum just completed: if it
       was the first, its output morsel marks first-row latency *)
    if q.q_first_s = None && Exec.quanta ex > 0 then
      q.q_first_s <- Some (d.now () -. q.q_arrival);
    (match Atomic.exchange q.q_swap None with
    | Some (nm, e) when not (Exec.finished ex) ->
        let _, cm, fresh = Code_cache.force cache db ~params:q.q_params ~claim:true e in
        q.q_claims <- (e, cm) :: q.q_claims;
        if fresh && parameterized then
          q.q_compile_s <- q.q_compile_s +. Costmodel.bind_seconds;
        Exec.swap ex cm;
        q.q_cur_tier <- nm;
        q.q_tiers <- nm :: q.q_tiers;
        q.q_upgrading <- false;
        if q.q_switch_s = None then q.q_switch_s <- Some (d.now () -. q.q_start)
    | _ -> ());
    if c.reopt && c.mode = Tiered then consider_upgrade ex;
    match Exec.step ex ~morsel:c.morsel with
    | `Done ->
        finish t q ex;
        on_done ()
    | `Ran dc -> d.after (Engine.cycles_to_seconds dc) (fun () -> quantum ex)
  in
  q.q_start <- d.now ();
  match c.mode with
  | Static backend ->
      (* no cache semantics: charge the full modelled compile every time
         (the module itself is memoized host-side, which changes no
         modelled duration — the code is identical) *)
      let e, _hit = fetch ~stats:false backend in
      enter (Qcomp_backend.Backend.name backend);
      charged e false
  | Cached ->
      let nm, b = first_rung () in
      enter nm;
      let e, hit = fetch b in
      q.q_cache_hit <- hit;
      charged e hit
  | Tiered -> (
      let nm, b = first_rung () in
      if String.equal nm "interpreter" then begin
        (* nothing stronger to tier to: serve straight from bytecode *)
        let e, hit = fetch b in
        q.q_cache_hit <- hit;
        enter ~tier0:true nm;
        charged e hit
      end
      else
        let resident =
          d.locked (fun () ->
              match Code_cache.find cache (key_of b) with
              | Some e ->
                  pin_locked t q e;
                  Some e
              | None -> None)
        in
        match resident with
        | Some e ->
            q.q_cache_hit <- true;
            enter nm;
            begin_exec e
        | None ->
            (* tier 0 now, the pick on the background compile pool *)
            let ie, ihit = fetch Engine.interpreter in
            enter ~tier0:true "interpreter";
            q.q_compile_s <- (if ihit then 0.0 else ie.Code_cache.ce_compile_s);
            q.q_upgrading <- true;
            d.locked (fun () -> compile_behind nm b);
            d.after q.q_compile_s (fun () -> begin_exec ie))

let report ?makespan t ~queue_peak =
  let queries = List.rev t.completed in
  let makespan =
    match makespan with
    | Some m -> m
    | None -> List.fold_left (fun a q -> Float.max a q.Report.qm_finish) 0.0 queries
  in
  Report.assemble t.db t.cache ~mode:(mode_name t.config.mode) ~makespan
    ~sheds:(List.rev t.sheds) ~queue_peak queries
