(* CRC-32C (Castagnoli), reflected polynomial 0x82F63B78, table-driven.
   Entries and accumulators are 32-bit values held in plain [int]s. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
      done;
      !c)

let crc32c_u8 crc byte = (crc lsr 8) lxor table.((crc lxor byte) land 0xFF)
let crc32c_byte acc byte = Int64.of_int (crc32c_u8 (Int64.to_int acc land 0xFFFF_FFFF) byte)

let crc32c_words crc ~lo ~hi =
  let step crc word =
    let c = ref crc in
    for i = 0 to 3 do
      c := (!c lsr 8) lxor table.((!c lxor (word lsr (8 * i))) land 0xFF)
    done;
    !c
  in
  step (step crc lo) hi

let crc32c acc x =
  Int64.of_int
    (crc32c_words
       (Int64.to_int acc land 0xFFFF_FFFF)
       ~lo:(Int64.to_int x land 0xFFFF_FFFF)
       ~hi:(Int64.to_int (Int64.shift_right_logical x 32)))

let long_mul_fold x k =
  let p = I128.umul64_wide x k in
  Int64.logxor (I128.to_int64 p) (I128.to_int64 (I128.shift_right_logical p 64))

let rotr64 x n =
  let n = n land 63 in
  if n = 0 then x
  else Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

(* Two CRC lanes with distinct seeds combined via rotate-xor; the constants
   are the ones visible in Listing 2 of the paper. *)
let seed_a = 0xF45F_017F_FBC4_0390L
let seed_b = 0xB993_5CC9_7AB5_B272L

let hash64 x =
  let a = crc32c seed_a x in
  let b = crc32c seed_b x in
  Int64.logxor (Int64.logor (Int64.shift_left b 32) a) (rotr64 x 32)

let combine h v = long_mul_fold (Int64.logxor h v) 0x9E37_79B9_7F4A_7C15L

(* ---------------- hash inversion ----------------

   [hash64] is affine over GF(2): CRC-32C is linear in its data argument
   (table-driven, no init/final xor), the two lanes are packed by shifts
   and the rotate-xor term is a bit permutation, so
   hash64(x) = M*x xor hash64(0) for a fixed 64x64 bit matrix M. M happens
   to be invertible for the paper's seed constants, which means the
   runtime — which owns the hash function — can recover the exact 64-bit
   key from a stored hash. The hash table uses this to detect dense
   integer key ranges and switch to a direct-address layout without the
   generated code ever passing raw keys. *)

(* The byte-sliced tables of M^-1, flat: the native-endian int64 at byte
   [8 * (256 * k + b)] is the image of byte value [b] at byte position [k]
   of the input; empty when M is singular. *)
let unhash_table : Bytes.t =
  let h0 = hash64 0L in
  (* columns of M: M * e_i = hash64(2^i) xor hash64(0) *)
  let cols =
    Array.init 64 (fun i -> Int64.logxor (hash64 (Int64.shift_left 1L i)) h0)
  in
  (* rows of M as 64-bit masks over the input bits *)
  let rows = Array.make 64 0L in
  for i = 0 to 63 do
    for r = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical cols.(i) r) 1L = 1L then
        rows.(r) <- Int64.logor rows.(r) (Int64.shift_left 1L i)
    done
  done;
  (* Gauss-Jordan over GF(2) on [M | I] -> [I | M^-1] *)
  let aug = Array.init 64 (fun r -> (rows.(r), Int64.shift_left 1L r)) in
  let singular = ref false in
  let r = ref 0 in
  for col = 0 to 63 do
    if not !singular then begin
      let sel = ref (-1) in
      for i = !r to 63 do
        if
          !sel < 0
          && Int64.logand (Int64.shift_right_logical (fst aug.(i)) col) 1L
             = 1L
        then sel := i
      done;
      if !sel < 0 then singular := true
      else begin
        let tmp = aug.(!r) in
        aug.(!r) <- aug.(!sel);
        aug.(!sel) <- tmp;
        for i = 0 to 63 do
          if
            i <> !r
            && Int64.logand (Int64.shift_right_logical (fst aug.(i)) col) 1L
               = 1L
          then
            aug.(i) <-
              ( Int64.logxor (fst aug.(i)) (fst aug.(!r)),
                Int64.logxor (snd aug.(i)) (snd aug.(!r)) )
        done;
        incr r
      end
    end
  done;
  if !singular then Bytes.empty
  else begin
    (* invrows.(b) = row b of M^-1; x_b = parity(invrows.(b) land v).
       Repack into inverse columns, then byte-sliced tables so
       [unhash64] is 8 table lookups and xors. *)
    let invrows = Array.make 64 0L in
    (* after full reduction, row order matches column order *)
    for b = 0 to 63 do
      invrows.(b) <- snd aug.(b)
    done;
    let invcols = Array.make 64 0L in
    for b = 0 to 63 do
      for j = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical invrows.(b) j) 1L = 1L
        then invcols.(j) <- Int64.logor invcols.(j) (Int64.shift_left 1L b)
      done
    done;
    let tables = Bytes.create (8 * 8 * 256) in
    for k = 0 to 7 do
      for byte = 0 to 255 do
        let acc = ref 0L in
        for t = 0 to 7 do
          if byte land (1 lsl t) <> 0 then
            acc := Int64.logxor !acc invcols.((8 * k) + t)
        done;
        Bytes.set_int64_ne tables (8 * ((256 * k) + byte)) !acc
      done
    done;
    tables
  end

let invertible = Bytes.length unhash_table > 0
let hash64_zero = hash64 0L

(* entry [k] of the tables for byte [k] of [v] *)
let[@inline] unhash_byte v k =
  Bytes.get_int64_ne unhash_table
    (8 * ((256 * k) + (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)))

let unhash64 h =
  if not invertible then invalid_arg "Hashes.unhash64: hash64 is not invertible";
  let v = Int64.logxor h hash64_zero in
  Int64.logxor
    (Int64.logxor
       (Int64.logxor (unhash_byte v 0) (unhash_byte v 1))
       (Int64.logxor (unhash_byte v 2) (unhash_byte v 3)))
    (Int64.logxor
       (Int64.logxor (unhash_byte v 4) (unhash_byte v 5))
       (Int64.logxor (unhash_byte v 6) (unhash_byte v 7)))
