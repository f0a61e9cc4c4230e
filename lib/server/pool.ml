(** Domain-based parallel serving: real OS-thread workers over one shared
    database, code cache and emulated machine.

    This is the production-shaped counterpart of the discrete-event
    scheduler in {!Server} (which remains the deterministic test double);
    both run the same per-query {!Lifecycle}. Each worker domain owns a
    {!Qcomp_engine.Engine.domain_view} — a fresh {!Qcomp_vm.Emu.context}
    over the shared memory and code registries — so query execution is
    genuinely concurrent: registers, flags and cycle counters are
    per-domain, while compiled code, the module cache and the runtime
    dispatch table are shared and mutex-guarded.

    Traffic is {e open-loop}: a feeder domain releases each request at its
    arrival timestamp (wall-clock, offset from run start) into a bounded
    multi-tenant {!Admission} queue — arrivals do not wait for free
    workers, exactly like clients that keep sending regardless of server
    load. When the queue is at its [admission_cap] the request is {e shed}
    (rejected and counted) instead of growing server state without bound.
    [workers] worker domains block on a condition variable while the queue
    is empty — an idle pool burns no host CPU — and dequeue tenant-fair
    round-robin. Foreground misses compile on the worker, deduplicated
    across domains by the cache's in-flight table; Tiered
    strong-tier compiles run on [compile_slots] dedicated compile domains.

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

    Lock ordering: pool mutex, then {!Code_cache}'s cache mutex, then its
    plan-memo mutex, then the emulator's layout lock. A domain holding one
    of these only takes locks later in the order, never an earlier one
    (the cache also takes its mutex with no pool mutex held). *)

open Qcomp_support
open Qcomp_engine
open Lifecycle.Config

let run_requests ?cache db config requests =
  validate_config ~driver:"Pool.run_requests" config;
  let cache =
    match cache with
    | Some c -> c
    | None -> Code_cache.create ~capacity:config.cache_capacity
  in
  let mu = Mutex.create () in
  (* work available / feeder finished; workers block here when idle *)
  let work_cv = Condition.create () in
  let feeder_done = ref false in
  let admission = Admission.create ?cap:config.admission_cap ~tenants:config.tenants () in
  let compile_jobs : (Engine.db -> unit) Queue.t = Queue.create () in
  let compile_cv = Condition.create () in
  let compile_closed = ref false in
  let first_error = ref None in
  let record_error exn =
    Mutex.protect mu (fun () -> if !first_error = None then first_error := Some exn)
  in
  let t0 = Timing.now () in
  let lc =
    Lifecycle.create ~db ~cache config
      {
        now = (fun () -> Timing.now () -. t0);
        (* compiles and quanta already took real time *)
        after = (fun _ k -> k ());
        locked = (fun f -> Mutex.protect mu f);
        submit =
          (fun compile publish ->
            Queue.push (fun view -> publish (compile view)) compile_jobs;
            Condition.signal compile_cv);
      }
  in
  (* The feeder releases requests open-loop at their arrival stamps: shed
     or admit at the stamp, independent of worker progress. Sleeping
     between releases (instead of workers polling a pre-filled queue) is
     what lets idle workers block. *)
  let feeder () =
    List.iter
      (fun rq ->
        let dt = t0 +. rq.rq_arrival -. Timing.now () in
        if dt > 0.0 then Unix.sleepf dt;
        Mutex.protect mu (fun () ->
            if Lifecycle.offer lc admission rq then Condition.signal work_cv))
      (List.stable_sort (fun a b -> compare a.rq_arrival b.rq_arrival) requests);
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
    let rec next () =
      match Admission.take admission with
      | Some q -> Some q
      | None when !feeder_done -> None
      | None ->
          Condition.wait work_cv mu;
          next ()
    in
    let rec loop () =
      match Mutex.protect mu next with
      | None -> ()
      | Some q ->
          (try Lifecycle.serve lc ~db:view ?sched q
           with exn ->
             record_error exn;
             Lifecycle.release lc q);
          loop ()
    in
    Fun.protect ~finally:release loop
  in
  (* Compile domains drain the background queue to empty even after the
     workers finish, so a run leaves the cache in the same warmed state the
     simulator would (every submitted compile lands). *)
  let compile_worker () =
    let view = Engine.domain_view db in
    let rec take () =
      if not (Queue.is_empty compile_jobs) then Some (Queue.pop compile_jobs)
      else if !compile_closed then None
      else begin
        Condition.wait compile_cv mu;
        take ()
      end
    in
    let rec loop () =
      match Mutex.protect mu take with
      | None -> ()
      | Some job ->
          (try job view with exn -> record_error exn);
          loop ()
    in
    Fun.protect ~finally:(fun () -> Qcomp_vm.Emu.release_context view.Engine.emu) loop
  in
  let n_compile = match config.mode with Tiered -> compile_slots | _ -> 0 in
  let compilers = List.init n_compile (fun _ -> Domain.spawn compile_worker) in
  let feeder_d = Domain.spawn feeder in
  let workers = List.init config.workers (fun _ -> Domain.spawn worker) in
  Domain.join feeder_d;
  List.iter Domain.join workers;
  Mutex.protect mu (fun () ->
      compile_closed := true;
      Condition.broadcast compile_cv);
  List.iter Domain.join compilers;
  (match !first_error with Some exn -> raise exn | None -> ());
  Lifecycle.report lc ~makespan:(Timing.now () -. t0)
    ~queue_peak:(Admission.peak admission)
