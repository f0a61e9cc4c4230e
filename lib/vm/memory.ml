(** Flat little-endian linear memory.

    Holds the database columns, runtime heap (tuple buffers, hash table
    arenas, GOTs) and the call stack of the virtual machine. The first page
    is never mapped so null-pointer dereferences trap.

    The arena is a private mapping of [/dev/zero]: the kernel zeroes each
    page the first time it is touched, so a fresh arena reads zero
    everywhere and pages no query touches cost neither time nor memory. *)

exception Fault of string

let page = 0x1000

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Unchecked accessors of the arena. As primitives they are inlined at
   every caller, across [-opaque] too, and move [int64]/[int32] values
   unboxed; every caller range-checks the access first. They read and
   write in the host's byte order, which must therefore be the emulated
   machines' little-endian one. *)
external get64u : buf -> int -> int64 = "%caml_bigstring_get64u"
external set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external get32u : buf -> int -> int32 = "%caml_bigstring_get32u"
external set32u : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get16u : buf -> int -> int = "%caml_bigstring_get16u"
external set16u : buf -> int -> int -> unit = "%caml_bigstring_set16u"
external get8u : buf -> int -> char = "%caml_ba_unsafe_ref_1"
external set8u : buf -> int -> char -> unit = "%caml_ba_unsafe_set_1"

(* A byte read that checks its index against the arena itself, for a
   reader without a range test of its own. *)
external get8 : buf -> int -> char = "%caml_ba_ref_1"

let () =
  if Sys.big_endian then failwith "Memory: the emulated memory is little-endian; this host is not"

(* the low 8 or 16 bits of [v], sign-extended *)
let[@inline] sext8 v = (v lsl (Sys.int_size - 8)) asr (Sys.int_size - 8)
let[@inline] sext16 v = (v lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

type t = {
  data : buf;
  size : int;
  mutable brk : int;  (** bump pointer for region allocation *)
  alloc_mu : Mutex.t;  (** serializes [alloc]/[free] across domains *)
  free_lists : (int * int, int list ref) Hashtbl.t;
      (** (align, size) -> reusable block addresses *)
  mutable live_data : int;  (** bytes allocated and not yet freed *)
  mutable peak_data : int;  (** high-water mark of [live_data] *)
  mutable freed_data : int;  (** cumulative bytes returned via [free] *)
  mutable reserved : (int * int) list;
      (** (addr, size) spans pinned by {!claim}; the bump allocator skips
          them, and they are never recycled *)
}

(* [size] zeroed bytes, mapped but not touched *)
let map_zeroed size : buf =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let create size =
  if size < 16 * page then invalid_arg "Memory.create: too small";
  {
    data = map_zeroed size;
    size;
    brk = page;
    alloc_mu = Mutex.create ();
    free_lists = Hashtbl.create 64;
    live_data = 0;
    peak_data = 0;
    freed_data = 0;
    reserved = [];
  }

let size t = t.size

(* [addr > t.size - n] rather than [addr + n > t.size]: an address near
   [max_int] must not wrap past the test, as the accessors are unchecked *)
let check t addr n =
  if addr < page || addr > t.size - n then
    raise (Fault (Printf.sprintf "access of %d bytes at 0x%x" n addr))

(* ---------------- spans ----------------

   Spans move a word at a time. [Bigarray.Array1.sub] allocates a proxy on
   every call, which a short span would pay per row; from [long_span]
   bytes on, the runtime's [memmove]/[memset] over sub-arrays is cheaper. *)

let long_span = 1024

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [memmove] of [len] bytes within [d] *)
let move d ~src ~dst len =
  if len >= long_span then Bigarray.Array1.(blit (sub d src len) (sub d dst len))
  else if dst <= src || dst >= src + len then begin
    (* upward: each word is read before any write reaches it *)
    let w = len land lnot 7 in
    let i = ref 0 in
    while !i < w do
      set64u d (dst + !i) (get64u d (src + !i));
      i := !i + 8
    done;
    for i = w to len - 1 do
      set8u d (dst + i) (get8u d (src + i))
    done
  end
  else begin
    (* [dst] above an overlapping [src]: downward *)
    let top = ref len in
    while !top >= 8 do
      top := !top - 8;
      set64u d (dst + !top) (get64u d (src + !top))
    done;
    for i = !top - 1 downto 0 do
      set8u d (dst + i) (get8u d (src + i))
    done
  end

(* [memset] of [len] bytes at [addr] to [c] *)
let fill_span d addr len c =
  if len >= long_span then Bigarray.Array1.(fill (sub d addr len) c)
  else begin
    let word = Int64.mul (Int64.of_int (Char.code c)) 0x0101_0101_0101_0101L in
    let w = len land lnot 7 in
    let i = ref 0 in
    while !i < w do
      set64u d (addr + !i) word;
      i := !i + 8
    done;
    for i = w to len - 1 do
      set8u d (addr + i) c
    done
  end

(* ---------------- allocation scopes ---------------- *)

(** An allocation scope collects every [(addr, size, align)] block a piece
    of work allocates, so the whole set can be recycled at once when the
    work retires ({!free_scope}). The active scope is domain-local: a
    worker domain executing a query quantum records its runtime
    allocations (tuple buffers, hash-table arenas, string bodies) without
    threading a handle through the generated code, while compilations on
    other domains are unaffected. *)
type scope = (int * int * int) list ref

let scope_key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let new_scope () : scope = ref []

(** Run [f] with [sc] as the calling domain's active scope. *)
let with_scope (sc : scope) f =
  let cell = Domain.DLS.get scope_key in
  let prev = !cell in
  cell := Some sc;
  Fun.protect ~finally:(fun () -> cell := prev) f

(** Run [f] with no active scope — for allocations that must outlive the
    enclosing scope (per-context VM stacks, module-owned tables). *)
let unscoped f =
  let cell = Domain.DLS.get scope_key in
  let prev = !cell in
  cell := None;
  Fun.protect ~finally:(fun () -> cell := prev) f

(** Carve a region off the allocator: an exact-fit recycled block when one
    is on the [(align, size)] free list, a fresh bump allocation
    otherwise. Freed blocks are zero-filled before they are listed, so a
    recycled block is indistinguishable from fresh memory — results never
    depend on recycling history. Safe to call from several domains at
    once; the returned regions are disjoint, which is the discipline that
    makes unguarded concurrent load/store sound — every allocation is
    owned by exactly one query/compilation at a time. *)
let alloc t ?(align = 16) n =
  let addr =
    Mutex.protect t.alloc_mu (fun () ->
        let a =
          match Hashtbl.find_opt t.free_lists (align, n) with
          | Some ({ contents = a :: rest } as l) ->
              l := rest;
              a
          | _ ->
              (* bump, stepping over any claimed spans *)
              let rec place cand =
                let a = (cand + align - 1) land lnot (align - 1) in
                match
                  List.find_opt
                    (fun (r0, rn) -> a < r0 + rn && r0 < a + n)
                    t.reserved
                with
                | Some (r0, rn) -> place (r0 + rn)
                | None -> a
              in
              let a = place t.brk in
              if a + n > t.size then raise (Fault "out of memory");
              t.brk <- a + n;
              a
        in
        t.live_data <- t.live_data + n;
        if t.live_data > t.peak_data then t.peak_data <- t.live_data;
        a)
  in
  (match !(Domain.DLS.get scope_key) with
  | Some sc -> sc := (addr, n, align) :: !sc
  | None -> ());
  addr

(** Return a block from {!alloc} to the [(align, size)] free list. The
    block is zero-filled here so the next {!alloc} of the same shape sees
    the fresh-memory invariant. The caller must own the block and never
    touch it again — there is no double-free detection. If the calling
    domain's active scope recorded the block, the record is dropped, so a
    runtime structure may retire an arena early (hash-table growth) while
    the scope still reclaims whatever is left at query teardown. *)
let free t ~addr ~size ~align =
  if size > 0 then begin
    check t addr size;
    Mutex.protect t.alloc_mu (fun () ->
        fill_span t.data addr size '\000';
        (match Hashtbl.find_opt t.free_lists (align, size) with
        | Some l -> l := addr :: !l
        | None -> Hashtbl.replace t.free_lists (align, size) (ref [ addr ]));
        t.live_data <- t.live_data - size;
        t.freed_data <- t.freed_data + size);
    match !(Domain.DLS.get scope_key) with
    | Some sc -> sc := List.filter (fun (a, _, _) -> a <> addr) !sc
    | None -> ()
  end

(** Free every block recorded in [sc] and empty it. *)
let free_scope t (sc : scope) =
  List.iter (fun (addr, size, align) -> free t ~addr ~size ~align) !sc;
  sc := []

(** Pin a specific address range for data whose absolute address is baked
    into re-linked code (snapshot string constants). The range must sit at
    or above the current break — i.e. in space no live allocation can
    already own — so a snapshot produced by a longer-lived process can
    always be re-materialized into a fresh database image. Claimed spans
    are skipped by the bump allocator and never enter the free lists; the
    same span cannot be claimed twice. All violations raise
    [Invalid_argument] (never a silent overlap). *)
let claim t ~addr ~size ~align =
  if size <= 0 then invalid_arg "Memory.claim: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Memory.claim: alignment must be a power of two";
  if addr land (align - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Memory.claim: 0x%x is not %d-byte aligned" addr align);
  if addr < page || addr + size > t.size then
    invalid_arg (Printf.sprintf "Memory.claim: 0x%x+%d out of range" addr size);
  Mutex.protect t.alloc_mu (fun () ->
      if addr < t.brk then
        invalid_arg
          (Printf.sprintf
             "Memory.claim: 0x%x is below the break 0x%x (already in use)" addr
             t.brk);
      if
        List.exists (fun (r0, rn) -> addr < r0 + rn && r0 < addr + size)
          t.reserved
      then
        invalid_arg
          (Printf.sprintf "Memory.claim: 0x%x+%d overlaps a claimed span" addr
             size);
      t.reserved <- (addr, size) :: t.reserved;
      t.live_data <- t.live_data + size;
      if t.live_data > t.peak_data then t.peak_data <- t.live_data)

let live_data_bytes t = Mutex.protect t.alloc_mu (fun () -> t.live_data)
let peak_data_bytes t = Mutex.protect t.alloc_mu (fun () -> t.peak_data)
let freed_data_bytes t = Mutex.protect t.alloc_mu (fun () -> t.freed_data)

let load64 t addr =
  check t addr 8;
  get64u t.data addr

let store64 t addr v =
  check t addr 8;
  set64u t.data addr v

let load t ~addr ~size ~sext =
  check t addr size;
  let d = t.data in
  match (size, sext) with
  | 8, _ -> get64u d addr
  | 4, false -> Int64.logand (Int64.of_int32 (get32u d addr)) 0xFFFFFFFFL
  | 4, true -> Int64.of_int32 (get32u d addr)
  | 2, false -> Int64.of_int (get16u d addr)
  | 2, true -> Int64.of_int (sext16 (get16u d addr))
  | 1, false -> Int64.of_int (Char.code (get8u d addr))
  | 1, true -> Int64.of_int (sext8 (Char.code (get8u d addr)))
  | _ -> raise (Fault "bad access size")

let store t ~addr ~size v =
  check t addr size;
  let d = t.data in
  match size with
  | 8 -> set64u d addr v
  | 4 -> set32u d addr (Int64.to_int32 v)
  | 2 -> set16u d addr (Int64.to_int v land 0xFFFF)
  | 1 -> set8u d addr (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | _ -> raise (Fault "bad access size")

(** Raw byte access for the runtime (string contents etc.). *)
let load_bytes t addr n =
  check t addr (max n 1);
  let d = t.data and b = Bytes.create n in
  let w = n land lnot 7 in
  let i = ref 0 in
  while !i < w do
    bytes_set64u b !i (get64u d (addr + !i));
    i := !i + 8
  done;
  for i = w to n - 1 do
    Bytes.unsafe_set b i (get8u d (addr + i))
  done;
  Bytes.unsafe_to_string b

let store_bytes t addr s =
  let n = String.length s in
  if n > 0 then begin
    check t addr n;
    let d = t.data and b = Bytes.unsafe_of_string s in
    let w = n land lnot 7 in
    let i = ref 0 in
    while !i < w do
      set64u d (addr + !i) (bytes_get64u b !i);
      i := !i + 8
    done;
    for i = w to n - 1 do
      set8u d (addr + i) (String.unsafe_get s i)
    done
  end

let blit t ~src ~dst ~len =
  if len > 0 then begin
    check t src len;
    check t dst len;
    move t.data ~src ~dst len
  end

let fill t ~addr ~len c =
  if len > 0 then begin
    check t addr len;
    fill_span t.data addr len c
  end
