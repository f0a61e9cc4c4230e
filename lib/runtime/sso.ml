(** Umbra's 16-byte string structure with small-buffer optimization.

    Layout (little-endian):
    - bytes 0–3: length
    - length <= 12: bytes 4–15 hold the entire string
    - length  > 12: bytes 4–7 hold the first four characters (prefix),
      bytes 8–15 a pointer to the full contents.

    The prefix makes most inequality comparisons resolvable from the struct
    alone, which is why Umbra passes these by value so frequently.

    A short string's bytes [4 + length, 16) are zero ({!write} clears
    them), so two short strings are equal exactly when both 8-byte words
    of their structs are, and {!hash} and DirectEmit's inline equality and
    hash read those two words without looking at the length. *)

open Qcomp_vm

let struct_size = 16
let inline_max = 12

(** Write string [s] as an SSO struct at [addr]; long bodies are placed in
    freshly allocated memory. *)
let write mem ~addr s =
  let n = String.length s in
  Memory.store mem ~addr ~size:4 (Int64.of_int n);
  if n <= inline_max then begin
    Memory.fill mem ~addr:(addr + 4) ~len:12 '\000';
    Memory.store_bytes mem (addr + 4) s
  end
  else begin
    let body = Memory.alloc mem ~align:8 n in
    Memory.store_bytes mem body s;
    Memory.store_bytes mem (addr + 4) (String.sub s 0 4);
    Memory.store64 mem (addr + 8) (Int64.of_int body)
  end

(** Allocate a struct and write [s] into it; returns the struct address. *)
let alloc mem s =
  let addr = Memory.alloc mem ~align:16 struct_size in
  write mem ~addr s;
  addr

let length mem addr =
  Int64.to_int (Memory.load mem ~addr ~size:4 ~sext:false)

let read mem addr =
  let n = length mem addr in
  if n <= inline_max then Memory.load_bytes mem (addr + 4) n
  else
    let body = Int64.to_int (Memory.load64 mem (addr + 8)) in
    Memory.load_bytes mem body n

let prefix mem addr =
  let n = min (length mem addr) 4 in
  Memory.load_bytes mem (addr + 4) n

(* The length word (length and prefix) first, then the second word:
   equal second words mean the same inline bytes or the same body. Only
   long strings that share length and prefix but not a body compare
   their contents. *)
let equal mem a b =
  let w0 = Memory.load64 mem a in
  Int64.equal w0 (Memory.load64 mem b)
  && (Int64.equal (Memory.load64 mem (a + 8)) (Memory.load64 mem (b + 8))
     || Int64.to_int w0 land 0xFFFF_FFFF > inline_max
        && String.equal (read mem a) (read mem b))

let compare_str mem a b = String.compare (read mem a) (read mem b)

(* The address of the [n] bytes of the string at [addr]: inline in its
   struct, or its body; checked once, so the matchers below read bytes
   straight from memory and allocate nothing. *)
let contents mem addr n =
  let a = if n <= inline_max then addr + 4 else Int64.to_int (Memory.load64 mem (addr + 8)) in
  if n > 0 then Memory.check mem a n;
  a

(* Checked against the arena as a backstop: every caller reads inside a
   span {!contents} or {!hash} has checked. *)
let byte mem a = Char.code (Memory.get8 mem.Memory.data a)

(* bytes [i, k) at [a] and at [b] are equal *)
let rec same_bytes mem a b i k =
  i = k || (byte mem (a + i) = byte mem (b + i) && same_bytes mem a b (i + 1) k)

(** [str] starts with [prefix]. *)
let has_prefix mem ~str ~prefix =
  let ns = length mem str and k = length mem prefix in
  k <= ns && same_bytes mem (contents mem str ns) (contents mem prefix k) 0 k

let percent = Char.code '%'
let underscore = Char.code '_'

(* pattern bytes [j, np) at [p] are all [%] *)
let rec only_percent mem p np j =
  j = np || (byte mem (p + j) = percent && only_percent mem p np (j + 1))

(* [s.[i..]] matches [p.[j..]], two pointers with backtracking: [star] is
   the position of the last [%] seen (-1 for none) and [mark] the first
   string position it has not absorbed yet. On a mismatch that [%] takes
   one more byte and matching resumes after it. *)
let rec like_from mem s ns p np i j star mark =
  if i < ns then begin
    let c = if j < np then byte mem (p + j) else -1 in
    if c = percent then like_from mem s ns p np i (j + 1) j i
    else if c >= 0 && (c = underscore || c = byte mem (s + i)) then
      like_from mem s ns p np (i + 1) (j + 1) star mark
    else if star >= 0 then like_from mem s ns p np (mark + 1) (star + 1) star (mark + 1)
    else false
  end
  else (* the string is used up: only [%]s may be left *)
    only_percent mem p np j

(** SQL LIKE with [%] and [_]. *)
let like mem ~str ~pat =
  let ns = length mem str and np = length mem pat in
  like_from mem (contents mem str ns) ns (contents mem pat np) np 0 0 (-1) 0

let hash_seed = 0xCBF29CE484222325L
let golden = 0x9E3779B97F4A7C15L

(* a word of VM memory, read in this module: {!Memory.load64} would box
   it (dune's dev profile compiles with [-opaque]) *)
let load64 (mem : Memory.t) addr =
  Memory.check mem addr 8;
  Memory.get64u mem.Memory.data addr

(* one CRC-32C step over the 8 bytes of [w], as {!Qcomp_support.Hashes.crc32c} *)
let crc_word crc w =
  Qcomp_support.Hashes.crc32c_words crc
    ~lo:(Int64.to_int w land 0xFFFF_FFFF)
    ~hi:(Int64.to_int (Int64.shift_right_logical w 32))

(** A short string hashes its two words, [long_mul_fold (crc32c (crc32c
    hash_seed w0) w1) golden], the function DirectEmit computes inline; a
    long one hashes its contents byte by byte from [hash_seed] with
    CRC-32C, xors in the length and folds the same way. The contents are
    read a word at a time: CRC-32C over a little-endian word is its eight
    byte steps. *)
let hash mem addr =
  let w0 = load64 mem addr in
  let n = Int64.to_int w0 land 0xFFFF_FFFF in
  let seed = Int64.to_int hash_seed land 0xFFFF_FFFF in
  if n <= inline_max then
    Qcomp_support.Hashes.long_mul_fold
      (Int64.of_int (crc_word (crc_word seed w0) (load64 mem (addr + 8))))
      golden
  else begin
    let body = Int64.to_int (load64 mem (addr + 8)) in
    Memory.check mem body n;
    let crc = ref seed and words = n / 8 in
    for k = 0 to words - 1 do
      crc := crc_word !crc (Memory.get64u mem.Memory.data (body + (8 * k)))
    done;
    for i = 8 * words to n - 1 do
      crc := Qcomp_support.Hashes.crc32c_u8 !crc (byte mem (body + i))
    done;
    Qcomp_support.Hashes.long_mul_fold (Int64.of_int (!crc lxor n)) golden
  end
