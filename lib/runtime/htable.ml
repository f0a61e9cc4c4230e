(** Hash table in VM memory, used for hash joins and group-by aggregation.

    Two layouts share one handle format and one registry ABI
    ([create]/[insert]/[lookup]/[next]/[iter]), so every back-end —
    interpreter, stencil, directemit, cranelift, llvm, gcc — inherits the
    fast paths with zero codegen edits. The runtime picks the layout from
    the keys it sees; nothing selects it from outside:

    - [Tagged]: an open-addressing entry arena plus a separate packed
      array of 16-bit hash tags (4 tags per 64-bit word, scanned
      word-at-a-time, HyPer / Umbra-unchained style). No-match probes
      compare tags only and never touch the entry arena; the full 64-bit
      hash is loaded only on a tag hit, so a miss costs ~7 simulated
      cycles.
    - [Direct]: a direct-address table for dense small-range integer keys
      (ClickHouse [FixedHashMap] style). The generated code only ever
      passes 64-bit hashes, but [Hashes.hash64] is affine over GF(2) and
      invertible, so the runtime recovers the exact key from the hash,
      tracks the observed key range, and falls back to [Tagged]
      transparently the moment the range exceeds {!direct_max_span}.

    Header layout (64 bytes at the handle address; generated code reads
    offsets +0/+16/+24 directly in group-by scan loops, so those are ABI):
    - +0  capacity  (entry-arena slot count; power of two in Tagged)
    - +8  count
    - +16 entry size in bytes: 8-byte hash header + payload (8-aligned)
          + 8-byte trailer (Direct-mode chain link; unused otherwise)
    - +24 pointer to the entry arena
    - +32 mode word: 1 = Tagged, 2 = Direct
    - +40 aux pointer: packed tag array (Tagged) / bucket array (Direct,
          0 until the first insert)
    - +48 Direct: key value of bucket 0 (the minimum key observed)
    - +56 Direct: bucket-array slot count (power of two)

    Entry layout: [hash:u64][payload...][chain:u64]; hash 0 marks an empty
    slot, so stored hashes are forced non-zero. Tagged uses linear
    probing; duplicates of the same hash are chained by probe order (joins
    need them), and growth rehashes circularly starting after an empty
    slot so the relative order of equal-hash entries survives rehashing.
    Direct appends entries in insertion order and chains duplicates
    through the trailer word.

    Entry addresses returned by [lookup]/[insert] are invalidated by the
    next growth or layout migration (the old arena is freed — see
    {!grow}). [next] checks that the entry address it is handed lies in
    the current arena and raises [Rt_error.Query_error] on a stale one
    instead of silently walking freed memory. *)

open Qcomp_support
open Qcomp_vm

let header_size = 64
let min_capacity = 16

(* Direct-address bounds: the bucket array never exceeds
   [direct_max_span] u32 slots (256 KiB) — beyond that the table migrates
   to the tagged layout. *)
let direct_max_span = 1 lsl 16
let direct_min_buckets = 64

let mode_tagged = 1L
let mode_direct = 2L

(* ---------------- charged-cycle model ----------------

   All simulated costs live here (the registry charges whatever these
   functions return), so the calibration is in one place:

   create 200 + arena zeroing.

   Tagged: a no-match probe is a tag-word scan that skips the entry
   arena entirely (Umbra's ~10-instruction no-match path):
     lookup 6 + 1/tag word + 3/tag hit; next 4 + 1/tag word + 3/tag hit;
     insert 10 + 1/tag word + 2 for the tag+hash stores
     + 6/moved entry on growth.

   Direct: a bounds check plus one bucket load:
     lookup 3 on range miss, 4 on empty bucket, 5 on hit; next 3/link;
     insert 8 + 1/chain hop to the tail.

   Creation, growth and migration charge {!zero_cost} per zeroed byte
   (1 cycle per 32 bytes, wide-store throughput), so large build sides do
   not look artificially cheap to the re-optimization cost model. *)

let zero_cost bytes = bytes / 32

(* ---------------- probe statistics ----------------

   Global counters feeding [bench join] and the htable tests. Atomic so
   parallel serving does not tear them; they are aggregate gauges, not
   per-table state. *)

let stat_probes = Atomic.make 0 (* lookup + next calls *)
let stat_probe_cycles = Atomic.make 0 (* cycles charged for those calls *)
let stat_tag_words = Atomic.make 0 (* 64-bit tag words scanned *)
let stat_tag_hits = Atomic.make 0 (* full-hash checks after a tag match *)
let stat_direct_probes = Atomic.make 0 (* probes served by a Direct table *)
let stat_fallbacks = Atomic.make 0 (* Direct -> Tagged migrations *)
let stat_grows = Atomic.make 0

type stats = {
  probes : int;
  probe_cycles : int;
  tag_words : int;
  tag_hits : int;
  direct_probes : int;
  fallbacks : int;
  grows : int;
}

let stats () =
  {
    probes = Atomic.get stat_probes;
    probe_cycles = Atomic.get stat_probe_cycles;
    tag_words = Atomic.get stat_tag_words;
    tag_hits = Atomic.get stat_tag_hits;
    direct_probes = Atomic.get stat_direct_probes;
    fallbacks = Atomic.get stat_fallbacks;
    grows = Atomic.get stat_grows;
  }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      stat_probes; stat_probe_cycles; stat_tag_words; stat_tag_hits;
      stat_direct_probes; stat_fallbacks; stat_grows;
    ]

let bump c n = Atomic.set c (Atomic.get c + n)

let count_probe cost =
  bump stat_probes 1;
  bump stat_probe_cycles cost

(* ---------------- handle accessors ---------------- *)

let norm_hash h = if Int64.equal h 0L then 1L else h

let capacity mem ht = Int64.to_int (Memory.load64 mem ht)
let count mem ht = Int64.to_int (Memory.load64 mem (ht + 8))
let entry_size mem ht = Int64.to_int (Memory.load64 mem (ht + 16))
let entries_ptr mem ht = Int64.to_int (Memory.load64 mem (ht + 24))
let mode_word mem ht = Memory.load64 mem (ht + 32)
let aux_ptr mem ht = Int64.to_int (Memory.load64 mem (ht + 40))
let direct_base mem ht = Memory.load64 mem (ht + 48)
let direct_bcap mem ht = Int64.to_int (Memory.load64 mem (ht + 56))

let mode mem ht =
  if Int64.equal (mode_word mem ht) mode_tagged then `Tagged else `Direct

let slot_addr mem ht i = entries_ptr mem ht + (i * entry_size mem ht)
let mask mem ht = capacity mem ht - 1

(* 16-bit tag from the top bits of the hash, forced non-zero so tag 0
   means "empty slot". Collisions with the forced value only cost a
   full-hash check (a false positive), never a wrong result. *)
let tag_of h =
  let t = Int64.to_int (Int64.shift_right_logical h 48) land 0xFFFF in
  if t = 0 then 1 else t

let load_tag mem tags i = Int64.to_int (Memory.load mem ~addr:(tags + (2 * i)) ~size:2 ~sext:false)
let store_tag mem tags i t = Memory.store mem ~addr:(tags + (2 * i)) ~size:2 (Int64.of_int t)

(* Tag words are scanned 64 bits (4 tags) at a time in the modeled
   hardware loop; the cost model charges per distinct word touched. *)
let tag_word i = i lsr 2

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let alloc_zeroed mem bytes =
  let a = Memory.alloc mem ~align:16 bytes in
  Memory.fill mem ~addr:a ~len:bytes '\000';
  a

(* ---------------- creation ---------------- *)

(** Create a table; returns [(handle, cycles)]. The table starts as a
    direct-address candidate (when {!Hashes.unhash64_opt} exists) and
    decides on first contact with the keys. *)
let create mem ~payload_size ~capacity_hint =
  let entry_size = 8 + ((payload_size + 7) land lnot 7) + 8 in
  let cap = pow2_at_least capacity_hint min_capacity in
  let ht = Memory.alloc mem ~align:16 header_size in
  let entries = alloc_zeroed mem (cap * entry_size) in
  Memory.store64 mem ht (Int64.of_int cap);
  Memory.store64 mem (ht + 8) 0L;
  Memory.store64 mem (ht + 16) (Int64.of_int entry_size);
  Memory.store64 mem (ht + 24) (Int64.of_int entries);
  Memory.store64 mem (ht + 48) 0L;
  Memory.store64 mem (ht + 56) 0L;
  let zeroed =
    match Hashes.unhash64_opt with
    | Some _ ->
        Memory.store64 mem (ht + 32) mode_direct;
        Memory.store64 mem (ht + 40) 0L;
        cap * entry_size
    | None ->
        let tags = alloc_zeroed mem (cap * 2) in
        Memory.store64 mem (ht + 32) mode_tagged;
        Memory.store64 mem (ht + 40) (Int64.of_int tags);
        (cap * entry_size) + (cap * 2)
  in
  (ht, 200 + zero_cost zeroed)

(* ---------------- tagged probing ---------------- *)

let tagged_insert_no_grow mem ht h =
  let cap_mask = mask mem ht in
  let tags = aux_ptr mem ht in
  let h = norm_hash h in
  let t = tag_of h in
  let rec probe i words last_w =
    let w = tag_word i in
    let words = if w = last_w then words else words + 1 in
    if load_tag mem tags i = 0 then begin
      store_tag mem tags i t;
      let addr = slot_addr mem ht i in
      Memory.store64 mem addr h;
      (addr + 8, words)
    end
    else probe ((i + 1) land cap_mask) words w
  in
  let start = Int64.to_int (Int64.logand h (Int64.of_int cap_mask)) in
  probe start 1 (tag_word start)

(* Tag-filtered probe from slot [start]: compare 16-bit tags from the
   packed array; only a tag match loads the slot's 64-bit hash. Returns
   (entry | 0, tag words scanned, full-hash checks). *)
let tagged_probe_from mem ht h start =
  let cap_mask = mask mem ht in
  let tags = aux_ptr mem ht in
  let t = tag_of h in
  let rec probe i words last_w hits =
    let w = tag_word i in
    let words = if w = last_w then words else words + 1 in
    let st = load_tag mem tags i in
    if st = 0 then (0, words, hits)
    else if st = t then begin
      let addr = slot_addr mem ht i in
      if Int64.equal (Memory.load64 mem addr) h then (addr, words, hits + 1)
      else probe ((i + 1) land cap_mask) words w (hits + 1)
    end
    else probe ((i + 1) land cap_mask) words w hits
  in
  probe start 1 (tag_word start) 0

(* ---------------- growth (Tagged) ----------------

   Doubles the arena and tag array and rehashes. Only Tagged tables
   reach it: a Direct arena grows by appending (see {!direct_insert}). The scan over the old arena starts
   just past an empty slot and wraps, so no maximal occupied run is split
   by the array boundary — equal-hash chains keep their probe order
   across growth (insertion order, the invariant joins rely on). The old
   arena (and tag array) is freed: repeated growth no longer leaks data
   bytes for the rest of the query. *)

let grow mem ht =
  bump stat_grows 1;
  let old_cap = capacity mem ht in
  let old_entries = entries_ptr mem ht in
  let old_tags = aux_ptr mem ht in
  let esz = entry_size mem ht in
  let new_cap = old_cap * 2 in
  let entries = alloc_zeroed mem (new_cap * esz) in
  let tags = alloc_zeroed mem (new_cap * 2) in
  Memory.store64 mem ht (Int64.of_int new_cap);
  Memory.store64 mem (ht + 24) (Int64.of_int entries);
  Memory.store64 mem (ht + 40) (Int64.of_int tags);
  (* load <= 70% guarantees an empty slot exists *)
  let first_empty = ref 0 in
  while
    not
      (Int64.equal (Memory.load64 mem (old_entries + (!first_empty * esz))) 0L)
  do
    incr first_empty
  done;
  let moved = ref 0 in
  for k = 1 to old_cap do
    let i = (!first_empty + k) land (old_cap - 1) in
    let src = old_entries + (i * esz) in
    let h = Memory.load64 mem src in
    if not (Int64.equal h 0L) then begin
      let dst_payload, _ = tagged_insert_no_grow mem ht h in
      Memory.blit mem ~src:(src + 8) ~dst:dst_payload ~len:(esz - 16);
      incr moved
    end
  done;
  Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
  Memory.free mem ~addr:old_tags ~size:(old_cap * 2) ~align:16;
  (6 * !moved) + zero_cost ((new_cap * esz) + (new_cap * 2))

(* ---------------- direct-address layout ---------------- *)

let unhash h =
  match Hashes.unhash64_opt with
  | Some f -> f h
  | None -> assert false (* Direct mode is never entered without it *)

let bucket_load mem buckets i =
  Int64.to_int (Memory.load mem ~addr:(buckets + (4 * i)) ~size:4 ~sext:false)

let bucket_store mem buckets i v =
  Memory.store mem ~addr:(buckets + (4 * i)) ~size:4 (Int64.of_int v)

let entry_of_index mem ht idx = entries_ptr mem ht + ((idx - 1) * entry_size mem ht)
let chain_word mem ht addr = addr + entry_size mem ht - 8

(* Migrate a Direct table (entries dense in [0, count)) to the Tagged
   layout; returns the charged cycles. Invalidate-on-migrate matches the
   growth contract: outstanding entry addresses die with the old arena. *)
let fallback_to_tagged mem ht =
  bump stat_fallbacks 1;
  let cnt = count mem ht in
  let old_cap = capacity mem ht in
  let old_entries = entries_ptr mem ht in
  let old_buckets = aux_ptr mem ht in
  let old_bcap = direct_bcap mem ht in
  let esz = entry_size mem ht in
  let cap = pow2_at_least (max min_capacity (2 * cnt)) min_capacity in
  let entries = alloc_zeroed mem (cap * esz) in
  let tags = alloc_zeroed mem (cap * 2) in
  Memory.store64 mem ht (Int64.of_int cap);
  Memory.store64 mem (ht + 24) (Int64.of_int entries);
  Memory.store64 mem (ht + 32) mode_tagged;
  Memory.store64 mem (ht + 40) (Int64.of_int tags);
  Memory.store64 mem (ht + 48) 0L;
  Memory.store64 mem (ht + 56) 0L;
  (* re-insert in arena order = insertion order: chain order is kept *)
  for i = 0 to cnt - 1 do
    let src = old_entries + (i * esz) in
    let h = Memory.load64 mem src in
    let dst_payload, _ = tagged_insert_no_grow mem ht h in
    Memory.blit mem ~src:(src + 8) ~dst:dst_payload ~len:(esz - 16)
  done;
  Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
  if old_buckets <> 0 then
    Memory.free mem ~addr:old_buckets ~size:(old_bcap * 4) ~align:16;
  (6 * cnt) + zero_cost ((cap * esz) + (cap * 2)) + 20

(* Re-point the bucket array at a window [base', base'+bcap') covering
   both the existing window and key [k]; returns the charged cycles.
   [base] is always the minimum key observed, so the window only ever
   extends. *)
let direct_rewindow mem ht k =
  let buckets = aux_ptr mem ht in
  let base = direct_base mem ht in
  let bcap = direct_bcap mem ht in
  let lo = if Int64.compare k base < 0 then k else base in
  let hi_old = Int64.add base (Int64.of_int (bcap - 1)) in
  let hi = if Int64.compare k hi_old > 0 then k else hi_old in
  let span = Int64.sub hi lo in
  (* unhashed keys are arbitrary 64-bit values: [span] going negative
     means the true distance overflowed int64 — way past any bound *)
  if
    Int64.compare span 0L < 0
    || Int64.compare hi_old base < 0 (* window wrapped past INT64_MAX *)
    || Int64.compare span (Int64.of_int direct_max_span) >= 0
  then `Fallback
  else begin
    let span = Int64.to_int span + 1 in
    let bcap' = pow2_at_least (max span direct_min_buckets) direct_min_buckets in
    let buckets' = alloc_zeroed mem (bcap' * 4) in
    let off = Int64.to_int (Int64.sub base lo) in
    Memory.blit mem ~src:buckets ~dst:(buckets' + (4 * off)) ~len:(bcap * 4);
    Memory.free mem ~addr:buckets ~size:(bcap * 4) ~align:16;
    Memory.store64 mem (ht + 40) (Int64.of_int buckets');
    Memory.store64 mem (ht + 48) lo;
    Memory.store64 mem (ht + 56) (Int64.of_int bcap');
    `Ok (20 + zero_cost (bcap' * 4) + zero_cost (bcap * 4))
  end

(* Append an entry to the Direct arena (doubling it when full — entry
   *indices* stay stable, so the bucket array survives growth) and link
   it at the tail of its bucket chain. *)
let direct_insert mem ht h =
  let h = norm_hash h in
  let k = unhash h in
  let cnt = count mem ht in
  let esz = entry_size mem ht in
  let setup_cost = ref 0 in
  let fellback = ref false in
  (if aux_ptr mem ht = 0 then begin
     (* first insert decides the window *)
     let buckets = alloc_zeroed mem (direct_min_buckets * 4) in
     Memory.store64 mem (ht + 40) (Int64.of_int buckets);
     Memory.store64 mem (ht + 48) k;
     Memory.store64 mem (ht + 56) (Int64.of_int direct_min_buckets);
     setup_cost := 20 + zero_cost (direct_min_buckets * 4)
   end
   else
     let base = direct_base mem ht in
     let bcap = direct_bcap mem ht in
     let off = Int64.sub k base in
     if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int bcap) >= 0
     then
       match direct_rewindow mem ht k with
       | `Ok c -> setup_cost := c
       | `Fallback ->
           setup_cost := fallback_to_tagged mem ht;
           fellback := true);
  if !fellback then begin
    let payload, words = tagged_insert_no_grow mem ht h in
    Memory.store64 mem (ht + 8) (Int64.of_int (cnt + 1));
    (payload, 10 + words + 2 + !setup_cost)
  end
  else begin
    (* arena full? double it (append-only: blit is index-stable) *)
    let grow_cost =
      if cnt >= capacity mem ht then begin
        bump stat_grows 1;
        let old_cap = capacity mem ht in
        let old_entries = entries_ptr mem ht in
        let new_cap = old_cap * 2 in
        let entries = alloc_zeroed mem (new_cap * esz) in
        Memory.blit mem ~src:old_entries ~dst:entries ~len:(old_cap * esz);
        Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
        Memory.store64 mem ht (Int64.of_int new_cap);
        Memory.store64 mem (ht + 24) (Int64.of_int entries);
        zero_cost (new_cap * esz) + (old_cap * esz / 32)
      end
      else 0
    in
    let idx = cnt + 1 in
    let addr = entry_of_index mem ht idx in
    Memory.store64 mem addr h;
    Memory.store64 mem (chain_word mem ht addr) 0L;
    let buckets = aux_ptr mem ht in
    let slot = Int64.to_int (Int64.sub k (direct_base mem ht)) in
    let head = bucket_load mem buckets slot in
    let hops = ref 0 in
    (if head = 0 then bucket_store mem buckets slot idx
     else begin
       (* chain duplicates in insertion order: append at the tail *)
       let tail = ref (entry_of_index mem ht head) in
       let next = ref (Memory.load64 mem (chain_word mem ht !tail)) in
       while not (Int64.equal !next 0L) do
         incr hops;
         tail := entry_of_index mem ht (Int64.to_int !next);
         next := Memory.load64 mem (chain_word mem ht !tail)
       done;
       Memory.store64 mem (chain_word mem ht !tail) (Int64.of_int idx)
     end);
    Memory.store64 mem (ht + 8) (Int64.of_int (cnt + 1));
    (addr + 8, 8 + !hops + !setup_cost + grow_cost)
  end

let direct_lookup mem ht h =
  bump stat_direct_probes 1;
  let buckets = aux_ptr mem ht in
  if buckets = 0 then (0, 3)
  else
    let h = norm_hash h in
    let k = unhash h in
    let off = Int64.sub k (direct_base mem ht) in
    if
      Int64.compare off 0L < 0
      || Int64.compare off (Int64.of_int (direct_bcap mem ht)) >= 0
    then (0, 3)
    else
      let idx = bucket_load mem buckets (Int64.to_int off) in
      if idx = 0 then (0, 4) else (entry_of_index mem ht idx, 5)

(* ---------------- public operations ---------------- *)

(** Insert an entry for [h]; returns (payload address, charged cycles). *)
let insert mem ht h =
  if Int64.equal (mode_word mem ht) mode_direct then direct_insert mem ht h
  else begin
    let cap = capacity mem ht in
    let cnt = count mem ht in
    let grow_cost = if 10 * (cnt + 1) > 7 * cap then grow mem ht else 0 in
    Memory.store64 mem (ht + 8) (Int64.of_int (cnt + 1));
    let payload, words = tagged_insert_no_grow mem ht h in
    bump stat_tag_words words;
    (payload, 10 + words + 2 + grow_cost)
  end

(** First entry whose hash equals [h]; 0 when absent. Returns the *entry*
    address (hash word included) so probing can continue with {!next},
    and the charged cycles. *)
let lookup mem ht h =
  let entry, cost =
    if Int64.equal (mode_word mem ht) mode_direct then direct_lookup mem ht h
    else begin
      let h = norm_hash h in
      let start = Int64.to_int (Int64.logand h (Int64.of_int (mask mem ht))) in
      let entry, words, hits = tagged_probe_from mem ht h start in
      bump stat_tag_words words;
      bump stat_tag_hits hits;
      (entry, 6 + words + (3 * hits))
    end
  in
  count_probe cost;
  (entry, cost)

(* [next]'s contract: [addr] must be an entry address of the *current*
   arena (as returned by [lookup]/[next] since the last growth or
   migration). A stale address from before a grow points into freed,
   zero-filled memory — walking it silently yields wrong results, so it
   is rejected loudly instead. *)
let check_entry_addr mem ht addr op =
  let base = entries_ptr mem ht in
  let esz = entry_size mem ht in
  let cap = capacity mem ht in
  if addr < base || addr >= base + (cap * esz) || (addr - base) mod esz <> 0
  then
    raise
      (Rt_error.Query_error
         (Printf.sprintf
            "%s: stale entry address 0x%x (table grew since lookup)" op addr))

(** Next entry with the same hash after entry [addr]; 0 when exhausted. *)
let next mem ht addr h =
  check_entry_addr mem ht addr "Htable.next";
  let entry, cost =
    if Int64.equal (mode_word mem ht) mode_direct then begin
      bump stat_direct_probes 1;
      let link = Memory.load64 mem (chain_word mem ht addr) in
      if Int64.equal link 0L then (0, 3)
      else (entry_of_index mem ht (Int64.to_int link), 3)
    end
    else begin
      let h = norm_hash h in
      let esz = entry_size mem ht in
      let i = (addr - entries_ptr mem ht) / esz in
      let entry, words, hits =
        tagged_probe_from mem ht h ((i + 1) land mask mem ht)
      in
      bump stat_tag_words words;
      bump stat_tag_hits hits;
      (entry, 4 + words + (3 * hits))
    end
  in
  count_probe cost;
  (entry, cost)

(** Iterate payload addresses of all occupied entries (scan order: slot
    order for Tagged, insertion order for Direct). *)
let iter mem ht f =
  let cap = capacity mem ht in
  for i = 0 to cap - 1 do
    let addr = slot_addr mem ht i in
    if not (Int64.equal (Memory.load64 mem addr) 0L) then f (addr + 8)
  done

(* ---------------- parallel-build support ---------------- *)

(** Capacity hint for an exact-size build from a known cardinality
    (Umbra-style): a table created with this hint absorbs [count] inserts
    without ever triggering {!grow} (the load stays <= 70%), and a Direct
    arena never doubles. *)
let exact_capacity count =
  pow2_at_least (max min_capacity (((10 * (count + 1)) + 6) / 7)) min_capacity

(** Fold every entry of [src] into [dst] by re-inserting under the stored
    (already normalized) hash and blitting the payload bytes; both tables
    must share one entry size. Chain order of equal-hash duplicates follows
    [src]'s scan order. Returns the charged cycles. *)
let merge_into mem ~dst ~src =
  let esz = entry_size mem src in
  if entry_size mem dst <> esz then
    raise (Rt_error.Query_error "Htable.merge_into: entry size mismatch");
  let plen = esz - 16 in
  let cost = ref 0 in
  let cap = capacity mem src in
  for i = 0 to cap - 1 do
    let addr = entries_ptr mem src + (i * esz) in
    let h = Memory.load64 mem addr in
    if not (Int64.equal h 0L) then begin
      let payload, c = insert mem dst h in
      Memory.blit mem ~src:(addr + 8) ~dst:payload ~len:plen;
      cost := !cost + c + 2 + (plen / 32)
    end
  done;
  !cost
