(** Bounded LRU map with hit/miss/eviction/byte accounting.

    The recency structure backing {!Code_cache}: O(1) find/add, eviction
    from the least-recently-used end once the entry count exceeds capacity,
    and a caller-supplied per-entry weight so byte totals can be reported. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;  (** total weight of live entries *)
  bytes_evicted : int;  (** total weight of everything evicted so far *)
}

(** [create ~capacity] holds at most [capacity] entries. Raises
    [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> ('k, 'v) t

(** [set_on_drop t f] installs a callback fired for every value leaving
    the map — tail eviction and value replacement by {!add} (but not
    re-adding the physically identical value). Owners of out-of-band
    resources use it to release them exactly once per residency. *)
val set_on_drop : ('k, 'v) t -> ('v -> unit) -> unit

val length : ('k, 'v) t -> int

(** [find t k] promotes [k] to most-recently-used and counts a hit; absent
    keys count a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Value peek that touches neither recency nor the hit/miss counters. *)
val peek : ('k, 'v) t -> 'k -> 'v option

(** [add t k ?weight v] inserts or replaces, promotes to front, then evicts
    least-recently-used entries until back under capacity. *)
val add : ('k, 'v) t -> 'k -> ?weight:int -> 'v -> unit

val stats : ('k, 'v) t -> stats

(** [iter t f] applies [f] to every live value, most- to least-recently
    used; touches neither recency nor the counters. *)
val iter : ('k, 'v) t -> ('v -> unit) -> unit

(** Keys from most- to least-recently used (test/debug aid). *)
val keys_mru : ('k, 'v) t -> 'k list
