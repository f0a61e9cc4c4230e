(** Growable arrays.

    All compiler-side containers in this code base are built on this module;
    it is deliberately minimal and allocation-friendly (amortized doubling,
    no functor indirection). *)

type 'a t

(** [create ~dummy ()] is an empty vector. [dummy] is used to fill unused
    capacity; it is never observable through the API. *)
val create : dummy:'a -> unit -> 'a t

(** [make ~dummy n x] is a vector of length [n] filled with [x]. *)
val make : dummy:'a -> int -> 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i] is the [i]-th element. Raises [Invalid_argument] when out of
    bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

val pop : 'a t -> 'a
val last : 'a t -> 'a
val clear : 'a t -> unit

(** [truncate v n] shrinks the length to [n] (which must be [<= length v]). *)
val truncate : 'a t -> int -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

(** [unsafe_data v] is [v]'s backing array, shared, not copied: its first
    [length v] cells are the elements, the rest is filler. It goes stale
    when [v] grows. For per-element loops in modules built without
    cross-module inlining, where a [get] call per element would dominate. *)
val unsafe_data : 'a t -> 'a array

val of_list : dummy:'a -> 'a list -> 'a t
val copy : 'a t -> 'a t

(** [blit_into src dst] replaces the contents of [dst] with those of [src]. *)
val blit_into : 'a t -> 'a t -> unit

(** [sort cmp v] sorts in place. *)
val sort : ('a -> 'a -> int) -> 'a t -> unit
