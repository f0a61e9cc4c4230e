(** Deterministic discrete-event scheduler.

    The serving layer never spawns Domains or Threads: "background"
    compilation and multi-worker execution are modelled as events on a
    virtual clock. Durations come only from deterministic sources
    ({!Qcomp_engine.Costmodel} and the emulator's simulated cycles), events
    at equal timestamps fire in scheduling order, and event handlers may schedule
    further events — so a whole serving run is a single reproducible event
    cascade. *)

module Key = struct
  type t = float * int (* time, then insertion sequence for stable ties *)

  let compare (t1, s1) (t2, s2) =
    match compare (t1 : float) t2 with 0 -> compare (s1 : int) s2 | c -> c
end

module Q = Map.Make (Key)

type t = {
  mutable now : float;
  mutable seq : int;
  mutable queue : (unit -> unit) Q.t;
}

let create () = { now = 0.0; seq = 0; queue = Q.empty }
let now t = t.now

(** Schedule [f] at absolute virtual time [time] (clamped to [now]: the
    past cannot be scheduled). *)
let at t time f =
  let time = if time < t.now then t.now else time in
  t.queue <- Q.add (time, t.seq) f t.queue;
  t.seq <- t.seq + 1

(** Schedule [f] [delay] virtual seconds from now. *)
let after t delay f = at t (t.now +. delay) f

(** Run events in timestamp order until the queue drains. *)
let run t =
  let rec loop () =
    match Q.min_binding_opt t.queue with
    | None -> ()
    | Some (((time, _) as key), f) ->
        t.queue <- Q.remove key t.queue;
        t.now <- time;
        f ();
        loop ()
  in
  loop ()
