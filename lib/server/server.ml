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
    - {b Cached}: the back-end chosen by
      {!Qcomp_engine.Engine.adaptive_backend} (the tier ladder priced by
      modelled compile seconds plus the predicted execution), fronted by
      the fingerprint-keyed {!Code_cache} — a cache hit skips the compile
      charge entirely.
    - {b Tiered}: a query starts on the strongest rung already resident in
      the cache; otherwise it starts executing immediately on interpreter
      bytecode while the same priced pick compiles in the background on a
      bounded compile pool, and at the next morsel boundary after the
      (simulated) compile completes the execution hot-swaps to the
      compiled code. With [reopt] the ladder is re-priced from observed
      cycles at every boundary. This is the Umbra/Ma-et-al. hybrid:
      interpreter latency to first result, compiled-code throughput for
      the bulk.

    The per-query lifecycle is {!Lifecycle}'s, shared with the domain pool;
    this driver supplies the virtual clock, the worker and compile-slot
    accounting and the admission cascade. All durations are deterministic —
    modelled compile seconds ({!Qcomp_engine.Costmodel}) and emulated
    execution cycles — so two runs with the same seed produce
    byte-identical reports, shed sets included. Host wall-clock never enters the virtual timeline. *)

open Qcomp_support
include Lifecycle.Config

(* The metric and report records have exactly one declaration, in
   {!Report}; both drivers alias it so the shapes can never drift. *)
type query_metrics = Report.query_metrics

type report = Report.t

(** Serve the timed [requests] as one deterministic discrete-event
    cascade: each request is offered to the admission queue at its virtual
    arrival time (shed at the cap — deterministically, since occupancy is
    a pure function of the event history), dequeued tenant-fair, executed
    morsel-by-morsel. *)
let serve_events ?cache db config requests =
  validate_config ~driver:"Server.run" config;
  let sim = Sim.create () in
  let cache =
    match cache with
    | Some c -> c
    | None -> Code_cache.create ~capacity:config.cache_capacity
  in
  let admission = Admission.create ?cap:config.admission_cap ~tenants:config.tenants () in
  (* one simulated lane pool for the whole run: quanta never overlap in
     virtual time, so every execution can share the lanes' Emu contexts;
     released once the cascade ends *)
  let sched =
    if config.intra > 1 then
      Some (Morsel_sched.create ~parallel:false db ~lanes:config.intra)
    else None
  in
  let free_workers = ref config.workers in
  let free_slots = ref compile_slots in
  let compile_jobs = Queue.create () in
  (* the compile pool: bounded slots draining a FIFO of jobs; the host
     compilation runs when the slot is acquired, but the result becomes
     visible only at the simulated completion event *)
  let pump_compiles () =
    while !free_slots > 0 && not (Queue.is_empty compile_jobs) do
      decr free_slots;
      (Queue.pop compile_jobs) ()
    done
  in
  let submit compile publish =
    Queue.push
      (fun () ->
        let e = compile db in
        Sim.after sim e.Code_cache.ce_compile_s (fun () ->
            publish e;
            incr free_slots;
            pump_compiles ()))
      compile_jobs;
    pump_compiles ()
  in
  let lc =
    Lifecycle.create ~db ~cache config
      {
        now = (fun () -> Sim.now sim);
        after = Sim.after sim;
        locked = (fun f -> f ());
        submit;
      }
  in
  let rec dispatch () =
    if !free_workers > 0 then
      match Admission.take admission with
      | None -> ()
      | Some q ->
          decr free_workers;
          Lifecycle.serve lc ~db ?sched q ~on_done:(fun () ->
              incr free_workers;
              dispatch ());
          dispatch ()
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Morsel_sched.release sched)
    (fun () ->
      (* each request is offered at its virtual arrival time: shed-or-admit
         depends only on queue occupancy at that instant, so same trace,
         same cap -> same sheds, byte-identical reports *)
      List.iter
        (fun rq ->
          Sim.at sim rq.rq_arrival (fun () ->
              if Lifecycle.offer lc admission rq then dispatch ()))
        requests;
      Sim.run sim);
  Lifecycle.report lc ~queue_peak:(Admission.peak admission)

(** Serve the timed [requests]: one deterministic discrete-event cascade,
    or with [~parallel:true] open-loop wall-clock serving on the domain
    pool ({!Pool.run_requests}). *)
let run_requests ?cache ?(parallel = false) db config requests =
  if parallel then Pool.run_requests ?cache db config requests
  else serve_events ?cache db config requests

let run ?cache ?parallel db config stream =
  run_requests ?cache ?parallel db config (requests_of_stream config stream)

(* ---------------- reporting (shared shape lives in {!Report}) ------- *)

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
