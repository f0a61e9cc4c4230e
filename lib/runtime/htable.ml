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

   All simulated costs live here, and the table operations charge the
   machine they run on themselves, so the calibration is in one place:

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

   Counters feeding [bench join], the e2e trace and the htable tests. Each
   domain counts into its own record with plain writes, so parallel
   serving loses no update and pays no atomic; [stats] sums the records of
   every domain that ever counted. They are aggregate gauges, not
   per-table state. *)

type stats = {
  mutable probes : int;  (** lookup + next calls *)
  mutable probe_cycles : int;  (** cycles charged for those calls *)
  mutable tag_words : int;  (** 64-bit tag words scanned *)
  mutable tag_hits : int;  (** full-hash checks after a tag match *)
  mutable direct_probes : int;  (** probes served by a Direct table *)
  mutable fallbacks : int;  (** Direct -> Tagged migrations *)
  mutable grows : int;
}

let zero_stats () =
  { probes = 0; probe_cycles = 0; tag_words = 0; tag_hits = 0; direct_probes = 0; fallbacks = 0; grows = 0 }

let domain_stats = ref [] (* every domain's record, under [domain_stats_mu] *)
let domain_stats_mu = Mutex.create ()

let stats_key =
  Domain.DLS.new_key (fun () ->
      let s = zero_stats () in
      Mutex.protect domain_stats_mu (fun () -> domain_stats := s :: !domain_stats);
      s)

(* the calling domain's counters *)
let[@inline] counters () = Domain.DLS.get stats_key

(** The counters summed over every domain. *)
let stats () =
  let sum = zero_stats () in
  List.iter
    (fun s ->
      sum.probes <- sum.probes + s.probes;
      sum.probe_cycles <- sum.probe_cycles + s.probe_cycles;
      sum.tag_words <- sum.tag_words + s.tag_words;
      sum.tag_hits <- sum.tag_hits + s.tag_hits;
      sum.direct_probes <- sum.direct_probes + s.direct_probes;
      sum.fallbacks <- sum.fallbacks + s.fallbacks;
      sum.grows <- sum.grows + s.grows)
    (Mutex.protect domain_stats_mu (fun () -> !domain_stats));
  sum

(* Charge a lookup or next probe of [cost] cycles and count it; returns
   [entry]. *)
let probed e d entry cost =
  d.probes <- d.probes + 1;
  d.probe_cycles <- d.probe_cycles + cost;
  Emu.charge e cost;
  entry

(* ---------------- memory access ----------------

   The table reads and writes VM memory through {!Memory}'s primitive
   accessors, which inline here although dune's dev profile compiles with
   [-opaque]; a call of {!Memory.load64} would not, and would box every
   [int64] it takes or returns. The copies below exist to keep the bounds
   check and its {!Memory.Fault} message inline too. *)

let[@inline never] access_fault n addr =
  raise (Memory.Fault (Printf.sprintf "access of %d bytes at 0x%x" n addr))

let[@inline] check (mem : Memory.t) addr n =
  if addr < Memory.page || addr > mem.Memory.size - n then access_fault n addr

let[@inline] load64 mem addr =
  check mem addr 8;
  Memory.get64u mem.Memory.data addr

let[@inline] store64 mem addr v =
  check mem addr 8;
  Memory.set64u mem.Memory.data addr v

let[@inline] load_int mem addr = Int64.to_int (load64 mem addr)
let[@inline] store_int mem addr v = store64 mem addr (Int64.of_int v)

(* ---------------- handle accessors ---------------- *)

let[@inline] norm_hash h = if Int64.equal h 0L then 1L else h

let[@inline] capacity mem ht = load_int mem ht
let[@inline] count mem ht = load_int mem (ht + 8)
let[@inline] entry_size mem ht = load_int mem (ht + 16)
let[@inline] entries_ptr mem ht = load_int mem (ht + 24)
let[@inline] aux_ptr mem ht = load_int mem (ht + 40)
let[@inline] direct_base mem ht = load64 mem (ht + 48)
let[@inline] direct_bcap mem ht = load_int mem (ht + 56)
let[@inline] is_direct mem ht = Int64.equal (load64 mem (ht + 32)) mode_direct

let mode mem ht = if is_direct mem ht then `Direct else `Tagged

let[@inline] slot_addr mem ht i = entries_ptr mem ht + (i * entry_size mem ht)

(* 16-bit tag from the top bits of the hash, forced non-zero so tag 0
   means "empty slot". Collisions with the forced value only cost a
   full-hash check (a false positive), never a wrong result. *)
let tag_of h =
  let t = Int64.to_int (Int64.shift_right_logical h 48) land 0xFFFF in
  if t = 0 then 1 else t

let load_tag mem tags i =
  let a = tags + (2 * i) in
  check mem a 2;
  Memory.get16u mem.Memory.data a

let store_tag mem tags i t =
  let a = tags + (2 * i) in
  check mem a 2;
  Memory.set16u mem.Memory.data a t

(* Tag words are scanned 64 bits (4 tags) at a time in the modeled
   hardware loop; the cost model charges per distinct word touched. *)
let tag_word i = i lsr 2

(* The tag words a linear probe reads from slot [start] to slot [stop] of
   [cap]: each word once per visit, so a word re-entered after wrapping
   past the end counts again. *)
let probe_words ~cap start stop =
  if stop >= start then tag_word stop - tag_word start + 1
  else tag_word (cap - 1) - tag_word start + 1 + tag_word stop + 1

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

(* ---------------- creation ---------------- *)

(** Create a table and charge its cost to [e]; returns the handle. The
    table starts as a direct-address candidate (when {!Hashes.unhash64}
    exists) and decides on first contact with the keys. Every arena here
    and in growth starts empty unfilled: {!Memory.alloc} hands out zeroed
    memory (fresh pages read zero, and {!Memory.free} zero-fills a block
    before it is reused). *)
let create e ~payload_size ~capacity_hint =
  let mem = Emu.memory e in
  let entry_size = 8 + ((payload_size + 7) land lnot 7) + 8 in
  let cap = pow2_at_least capacity_hint min_capacity in
  let ht = Memory.alloc mem ~align:16 header_size in
  let entries = Memory.alloc mem ~align:16 (cap * entry_size) in
  store_int mem ht cap;
  store_int mem (ht + 8) 0;
  store_int mem (ht + 16) entry_size;
  store_int mem (ht + 24) entries;
  store_int mem (ht + 48) 0;
  store_int mem (ht + 56) 0;
  let zeroed =
    if Hashes.invertible then begin
      store64 mem (ht + 32) mode_direct;
      store_int mem (ht + 40) 0;
      cap * entry_size
    end
    else begin
      let tags = Memory.alloc mem ~align:16 (cap * 2) in
      store64 mem (ht + 32) mode_tagged;
      store_int mem (ht + 40) tags;
      (cap * entry_size) + (cap * 2)
    end
  in
  Emu.charge e (200 + zero_cost zeroed);
  ht

(* ---------------- tagged probing ---------------- *)

(* Claim the first empty slot of [h]'s probe sequence in a Tagged table
   that has room: store the tag and the normalised hash there. Returns the
   slot; {!claim_words} gives the tag words the claim scanned. *)
let tagged_claim mem ht h =
  let mask = capacity mem ht - 1 in
  let tags = aux_ptr mem ht in
  let h = norm_hash h in
  let i = ref (Int64.to_int h land mask) in
  while load_tag mem tags !i <> 0 do
    i := (!i + 1) land mask
  done;
  store_tag mem tags !i (tag_of h);
  store64 mem (slot_addr mem ht !i) h;
  !i

let claim_words mem ht h slot =
  let cap = capacity mem ht in
  probe_words ~cap (Int64.to_int (norm_hash h) land (cap - 1)) slot

(* Tag-filtered probe for the normalised hash [h] from slot [from] (taken
   modulo the capacity): compare 16-bit tags from the packed array; only a
   tag match loads the slot's 64-bit hash. Charges [base] + 1 per tag word
   + 3 per full-hash check; returns the entry, or 0. *)
let tagged_probe e mem ht h ~from ~base =
  let mask = capacity mem ht - 1 in
  let tags = aux_ptr mem ht in
  let entries = entries_ptr mem ht and esz = entry_size mem ht in
  let t = tag_of h in
  let start = from land mask in
  let i = ref start and hits = ref 0 and entry = ref (-1) in
  while !entry < 0 do
    let st = load_tag mem tags !i in
    if st = 0 then entry := 0
    else begin
      if st = t then begin
        incr hits;
        let addr = entries + (!i * esz) in
        if Int64.equal (load64 mem addr) h then entry := addr
      end;
      if !entry < 0 then i := (!i + 1) land mask
    end
  done;
  let words = probe_words ~cap:(mask + 1) start !i in
  let d = counters () in
  d.tag_words <- d.tag_words + words;
  d.tag_hits <- d.tag_hits + !hits;
  probed e d !entry (base + words + (3 * !hits))

(* ---------------- growth (Tagged) ----------------

   Doubles the arena and tag array and rehashes. Only Tagged tables
   reach it: a Direct arena grows by appending (see {!direct_insert}). The scan over the old arena starts
   just past an empty slot and wraps, so no maximal occupied run is split
   by the array boundary — equal-hash chains keep their probe order
   across growth (insertion order, the invariant joins rely on). The old
   arena (and tag array) is freed: repeated growth no longer leaks data
   bytes for the rest of the query. *)

let grow mem ht =
  let d = counters () in
  d.grows <- d.grows + 1;
  let old_cap = capacity mem ht in
  let old_entries = entries_ptr mem ht in
  let old_tags = aux_ptr mem ht in
  let esz = entry_size mem ht in
  let new_cap = old_cap * 2 in
  let entries = Memory.alloc mem ~align:16 (new_cap * esz) in
  let tags = Memory.alloc mem ~align:16 (new_cap * 2) in
  store_int mem ht new_cap;
  store_int mem (ht + 24) entries;
  store_int mem (ht + 40) tags;
  (* load <= 70% guarantees an empty slot exists *)
  let first_empty = ref 0 in
  while not (Int64.equal (load64 mem (old_entries + (!first_empty * esz))) 0L) do
    incr first_empty
  done;
  let moved = ref 0 in
  for k = 1 to old_cap do
    let i = (!first_empty + k) land (old_cap - 1) in
    let src = old_entries + (i * esz) in
    let h = load64 mem src in
    if not (Int64.equal h 0L) then begin
      let dst = slot_addr mem ht (tagged_claim mem ht h) in
      Memory.blit mem ~src:(src + 8) ~dst:(dst + 8) ~len:(esz - 16);
      incr moved
    end
  done;
  Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
  Memory.free mem ~addr:old_tags ~size:(old_cap * 2) ~align:16;
  (6 * !moved) + zero_cost ((new_cap * esz) + (new_cap * 2))

(* ---------------- direct-address layout ---------------- *)

let bucket_load mem buckets i =
  let a = buckets + (4 * i) in
  check mem a 4;
  Int32.to_int (Memory.get32u mem.Memory.data a) land 0xFFFF_FFFF

let bucket_store mem buckets i v =
  let a = buckets + (4 * i) in
  check mem a 4;
  Memory.set32u mem.Memory.data a (Int32.of_int v)

let[@inline] entry_of_index mem ht idx = entries_ptr mem ht + ((idx - 1) * entry_size mem ht)
let[@inline] chain_word mem ht addr = addr + entry_size mem ht - 8

(* Migrate a Direct table (entries dense in [0, count)) to the Tagged
   layout; returns the charged cycles. Invalidate-on-migrate matches the
   growth contract: outstanding entry addresses die with the old arena. *)
let fallback_to_tagged mem ht =
  let d = counters () in
  d.fallbacks <- d.fallbacks + 1;
  let cnt = count mem ht in
  let old_cap = capacity mem ht in
  let old_entries = entries_ptr mem ht in
  let old_buckets = aux_ptr mem ht in
  let old_bcap = direct_bcap mem ht in
  let esz = entry_size mem ht in
  let cap = pow2_at_least (max min_capacity (2 * cnt)) min_capacity in
  let entries = Memory.alloc mem ~align:16 (cap * esz) in
  let tags = Memory.alloc mem ~align:16 (cap * 2) in
  store_int mem ht cap;
  store_int mem (ht + 24) entries;
  store64 mem (ht + 32) mode_tagged;
  store_int mem (ht + 40) tags;
  store_int mem (ht + 48) 0;
  store_int mem (ht + 56) 0;
  (* re-insert in arena order = insertion order: chain order is kept *)
  for i = 0 to cnt - 1 do
    let src = old_entries + (i * esz) in
    let dst = slot_addr mem ht (tagged_claim mem ht (load64 mem src)) in
    Memory.blit mem ~src:(src + 8) ~dst:(dst + 8) ~len:(esz - 16)
  done;
  Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
  if old_buckets <> 0 then
    Memory.free mem ~addr:old_buckets ~size:(old_bcap * 4) ~align:16;
  (6 * cnt) + zero_cost ((cap * esz) + (cap * 2)) + 20

(* Re-point the bucket array at a window [base', base'+bcap') covering
   both the existing window and key [k]; returns the charged cycles, or
   -1 when the window would exceed {!direct_max_span} and the table must
   fall back to the tagged layout. [base] is always the minimum key
   observed, so the window only ever extends. *)
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
  then -1
  else begin
    let span = Int64.to_int span + 1 in
    let bcap' = pow2_at_least (max span direct_min_buckets) direct_min_buckets in
    let buckets' = Memory.alloc mem ~align:16 (bcap' * 4) in
    let off = Int64.to_int (Int64.sub base lo) in
    Memory.blit mem ~src:buckets ~dst:(buckets' + (4 * off)) ~len:(bcap * 4);
    Memory.free mem ~addr:buckets ~size:(bcap * 4) ~align:16;
    store_int mem (ht + 40) buckets';
    store64 mem (ht + 48) lo;
    store_int mem (ht + 56) bcap';
    20 + zero_cost (bcap' * 4) + zero_cost (bcap * 4)
  end

(* Append an entry to the Direct arena (doubling it when full — entry
   *indices* stay stable, so the bucket array survives growth) and link
   it at the tail of its bucket chain; charges [e] and returns the payload
   address. *)
let direct_insert e mem ht h =
  let h = norm_hash h in
  let k = Hashes.unhash64 h in
  let cnt = count mem ht in
  let esz = entry_size mem ht in
  let setup_cost = ref 0 in
  let fellback = ref false in
  (if aux_ptr mem ht = 0 then begin
     (* first insert decides the window *)
     let buckets = Memory.alloc mem ~align:16 (direct_min_buckets * 4) in
     store_int mem (ht + 40) buckets;
     store64 mem (ht + 48) k;
     store_int mem (ht + 56) direct_min_buckets;
     setup_cost := 20 + zero_cost (direct_min_buckets * 4)
   end
   else
     let base = direct_base mem ht in
     let bcap = direct_bcap mem ht in
     let off = Int64.sub k base in
     if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int bcap) >= 0
     then begin
       let c = direct_rewindow mem ht k in
       if c >= 0 then setup_cost := c
       else begin
         setup_cost := fallback_to_tagged mem ht;
         fellback := true
       end
     end);
  if !fellback then begin
    let slot = tagged_claim mem ht h in
    store_int mem (ht + 8) (cnt + 1);
    Emu.charge e (10 + claim_words mem ht h slot + 2 + !setup_cost);
    slot_addr mem ht slot + 8
  end
  else begin
    (* arena full? double it (append-only: blit is index-stable) *)
    let grow_cost =
      if cnt >= capacity mem ht then begin
        let d = counters () in
        d.grows <- d.grows + 1;
        let old_cap = capacity mem ht in
        let old_entries = entries_ptr mem ht in
        let new_cap = old_cap * 2 in
        let entries = Memory.alloc mem ~align:16 (new_cap * esz) in
        Memory.blit mem ~src:old_entries ~dst:entries ~len:(old_cap * esz);
        Memory.free mem ~addr:old_entries ~size:(old_cap * esz) ~align:16;
        store_int mem ht new_cap;
        store_int mem (ht + 24) entries;
        zero_cost (new_cap * esz) + (old_cap * esz / 32)
      end
      else 0
    in
    let idx = cnt + 1 in
    let addr = entry_of_index mem ht idx in
    store64 mem addr h;
    store_int mem (chain_word mem ht addr) 0;
    let buckets = aux_ptr mem ht in
    let slot = Int64.to_int (Int64.sub k (direct_base mem ht)) in
    let head = bucket_load mem buckets slot in
    let hops = ref 0 in
    (if head = 0 then bucket_store mem buckets slot idx
     else begin
       (* chain duplicates in insertion order: append at the tail *)
       let tail = ref (entry_of_index mem ht head) in
       let next = ref (load_int mem (chain_word mem ht !tail)) in
       while !next <> 0 do
         incr hops;
         tail := entry_of_index mem ht !next;
         next := load_int mem (chain_word mem ht !tail)
       done;
       store_int mem (chain_word mem ht !tail) idx
     end);
    store_int mem (ht + 8) (cnt + 1);
    Emu.charge e (8 + !hops + !setup_cost + grow_cost);
    addr + 8
  end

let direct_lookup e mem ht h =
  let d = counters () in
  d.direct_probes <- d.direct_probes + 1;
  let buckets = aux_ptr mem ht in
  if buckets = 0 then probed e d 0 3
  else
    let k = Hashes.unhash64 (norm_hash h) in
    let off = Int64.sub k (direct_base mem ht) in
    if
      Int64.compare off 0L < 0
      || Int64.compare off (Int64.of_int (direct_bcap mem ht)) >= 0
    then probed e d 0 3
    else
      let idx = bucket_load mem buckets (Int64.to_int off) in
      if idx = 0 then probed e d 0 4 else probed e d (entry_of_index mem ht idx) 5

(* ---------------- public operations ----------------

   Each operation charges its cycles to the machine [e] it runs on and
   returns one address, so a probe allocates nothing but what
   {!Hashes.unhash64} returns on a Direct table. *)

(** Insert an entry for [h]; returns the payload address. *)
let insert e ht h =
  let mem = Emu.memory e in
  if is_direct mem ht then direct_insert e mem ht h
  else begin
    let cap = capacity mem ht in
    let cnt = count mem ht in
    let grow_cost = if 10 * (cnt + 1) > 7 * cap then grow mem ht else 0 in
    store_int mem (ht + 8) (cnt + 1);
    let slot = tagged_claim mem ht h in
    let words = claim_words mem ht h slot in
    let d = counters () in
    d.tag_words <- d.tag_words + words;
    Emu.charge e (10 + words + 2 + grow_cost);
    slot_addr mem ht slot + 8
  end

(** First entry whose hash equals [h]; 0 when absent. Returns the *entry*
    address (hash word included) so probing can continue with {!next}. *)
let lookup e ht h =
  let mem = Emu.memory e in
  if is_direct mem ht then direct_lookup e mem ht h
  else
    let h = norm_hash h in
    tagged_probe e mem ht h ~from:(Int64.to_int h) ~base:6

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
let next e ht addr h =
  let mem = Emu.memory e in
  check_entry_addr mem ht addr "Htable.next";
  if is_direct mem ht then begin
    let d = counters () in
    d.direct_probes <- d.direct_probes + 1;
    let link = load_int mem (chain_word mem ht addr) in
    probed e d (if link = 0 then 0 else entry_of_index mem ht link) 3
  end
  else begin
    let h = norm_hash h in
    let i = (addr - entries_ptr mem ht) / entry_size mem ht in
    tagged_probe e mem ht h ~from:(i + 1) ~base:4
  end

(** Iterate payload addresses of all occupied entries (scan order: slot
    order for Tagged, insertion order for Direct). *)
let iter mem ht f =
  let cap = capacity mem ht in
  for i = 0 to cap - 1 do
    let addr = slot_addr mem ht i in
    if not (Int64.equal (load64 mem addr) 0L) then f (addr + 8)
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
    [src]'s scan order. Charges [e]. *)
let merge_into e ~dst ~src =
  let mem = Emu.memory e in
  let esz = entry_size mem src in
  if entry_size mem dst <> esz then
    raise (Rt_error.Query_error "Htable.merge_into: entry size mismatch");
  let plen = esz - 16 in
  let cap = capacity mem src in
  for i = 0 to cap - 1 do
    let addr = entries_ptr mem src + (i * esz) in
    let h = load64 mem addr in
    if not (Int64.equal h 0L) then begin
      let payload = insert e dst h in
      Memory.blit mem ~src:(addr + 8) ~dst:payload ~len:plen;
      Emu.charge e (2 + (plen / 32))
    end
  done
