(** Deterministic discrete-event scheduler: a virtual clock and an event
    queue ordered by (timestamp, insertion sequence). No Domains/Threads —
    "background" work is events whose durations come from deterministic
    sources, so serving runs reproduce bit-for-bit. *)

type t

val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** Schedule at an absolute virtual time (clamped to now). *)
val at : t -> float -> (unit -> unit) -> unit

(** Schedule [delay] virtual seconds from now. *)
val after : t -> float -> (unit -> unit) -> unit

(** Fire events in timestamp order (handlers may schedule more) until the
    queue drains. *)
val run : t -> unit
