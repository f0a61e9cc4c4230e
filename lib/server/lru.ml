(** Bounded LRU map with hit/miss/eviction/byte accounting.

    O(1) find/add via a hash table over nodes of an intrusive doubly-linked
    list ordered most- to least-recently used. [find] promotes; [add]
    evicts from the tail until the entry count is back under capacity.
    Each entry carries a caller-supplied weight (bytes for the code cache)
    so the cache can report how much it holds and how much it has thrown
    away. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable weight : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;  (** total weight of live entries *)
  bytes_evicted : int;  (** total weight of everything evicted so far *)
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (** most recently used *)
  mutable tail : ('k, 'v) node option;  (** least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bytes : int;
  mutable bytes_evicted : int;
  mutable on_drop : 'v -> unit;
      (** called whenever a value leaves the map: eviction or replacement *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    bytes = 0;
    bytes_evicted = 0;
    on_drop = ignore;
  }

(** Install the drop callback. It fires for every value that leaves the
    map — tail eviction and value replacement by {!add} — so owners of
    out-of-band resources (the code cache's compiled modules) can release
    them exactly once per residency. *)
let set_on_drop t f = t.on_drop <- f

let length t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let promote t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      t.hits <- t.hits + 1;
      promote t n;
      Some n.value
  | None ->
      t.misses <- t.misses + 1;
      None

(** Value peek without touching recency or the hit/miss counters. *)
let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.tbl k)

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      t.evictions <- t.evictions + 1;
      t.bytes <- t.bytes - n.weight;
      t.bytes_evicted <- t.bytes_evicted + n.weight;
      t.on_drop n.value

let add t k ?(weight = 0) v =
  (match Hashtbl.find_opt t.tbl k with
  | Some n ->
      t.bytes <- t.bytes - n.weight + weight;
      let old = n.value in
      n.value <- v;
      n.weight <- weight;
      promote t n;
      (* re-adding the same value must not drop it *)
      if not (old == v) then t.on_drop old
  | None ->
      let n = { key = k; value = v; weight; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      t.bytes <- t.bytes + weight);
  while length t > t.capacity do
    evict_tail t
  done

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = length t;
    bytes = t.bytes;
    bytes_evicted = t.bytes_evicted;
  }

(** Apply [f] to every live value, most- to least-recently used, without
    touching recency or the counters. *)
let iter t f =
  let rec walk = function
    | None -> ()
    | Some n ->
        f n.value;
        walk n.next
  in
  walk t.head

(** Keys from most- to least-recently used (test/debug aid). *)
let keys_mru t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.key :: acc) n.next
  in
  walk [] t.head
