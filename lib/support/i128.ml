type t = { hi : int64; lo : int64 }

let make ~hi ~lo = { hi; lo }
let zero = { hi = 0L; lo = 0L }
let one = { hi = 0L; lo = 1L }
let minus_one = { hi = -1L; lo = -1L }
let min_int = { hi = Int64.min_int; lo = 0L }
let max_int = { hi = Int64.max_int; lo = -1L }

let of_int64 x = { hi = Int64.shift_right x 63; lo = x }
let of_int x = of_int64 (Int64.of_int x)
let to_int64 x = x.lo

(* [x] in the signed 64-bit range: its high word is the sign of its low *)
let fits64 x = Int64.equal x.hi (Int64.shift_right x.lo 63)

let to_int64_opt x = if fits64 x then Some x.lo else None

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo
let is_negative a = Int64.compare a.hi 0L < 0

let compare a b =
  let c = Int64.compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let compare_unsigned a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let add a b =
  let lo = Int64.add a.lo b.lo in
  let carry = if Int64.unsigned_compare lo a.lo < 0 then 1L else 0L in
  { hi = Int64.add (Int64.add a.hi b.hi) carry; lo }

let lognot a = { hi = Int64.lognot a.hi; lo = Int64.lognot a.lo }
let neg a = add (lognot a) one
let sub a b = add a (neg b)

let add_overflows a b =
  (* Signed overflow: operands share a sign that differs from the result's. *)
  let r = add a b in
  let sa = Int64.compare a.hi 0L < 0
  and sb = Int64.compare b.hi 0L < 0
  and sr = Int64.compare r.hi 0L < 0 in
  sa = sb && sa <> sr

let sub_overflows a b =
  let r = sub a b in
  let sa = Int64.compare a.hi 0L < 0
  and sb = Int64.compare b.hi 0L < 0
  and sr = Int64.compare r.hi 0L < 0 in
  sa <> sb && sa <> sr

let mask32 = 0xFFFF_FFFFL

(* Full 64x64 -> 128 unsigned product via 32-bit limbs. *)
let umul64_wide a b =
  let a0 = Int64.logand a mask32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask32 and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 in
  let p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 in
  let p11 = Int64.mul a1 b1 in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical p00 32) (Int64.logand p01 mask32))
      (Int64.logand p10 mask32)
  in
  let lo =
    Int64.logor (Int64.logand p00 mask32) (Int64.shift_left mid 32)
  in
  let hi =
    Int64.add
      (Int64.add p11 (Int64.shift_right_logical mid 32))
      (Int64.add
         (Int64.shift_right_logical p01 32)
         (Int64.shift_right_logical p10 32))
  in
  { hi; lo }

let smul64_wide a b =
  let u = umul64_wide a b in
  (* Convert unsigned product to signed: subtract b<<64 if a<0, a<<64 if b<0. *)
  let hi = u.hi in
  let hi = if Int64.compare a 0L < 0 then Int64.sub hi b else hi in
  let hi = if Int64.compare b 0L < 0 then Int64.sub hi a else hi in
  { u with hi }

let mul a b =
  let p = umul64_wide a.lo b.lo in
  let hi =
    Int64.add p.hi (Int64.add (Int64.mul a.hi b.lo) (Int64.mul a.lo b.hi))
  in
  { hi; lo = p.lo }

let logand a b = { hi = Int64.logand a.hi b.hi; lo = Int64.logand a.lo b.lo }
let logor a b = { hi = Int64.logor a.hi b.hi; lo = Int64.logor a.lo b.lo }
let logxor a b = { hi = Int64.logxor a.hi b.hi; lo = Int64.logxor a.lo b.lo }

let shift_left a n =
  let n = n land 127 in
  if n = 0 then a
  else if n < 64 then
    {
      hi =
        Int64.logor (Int64.shift_left a.hi n)
          (Int64.shift_right_logical a.lo (64 - n));
      lo = Int64.shift_left a.lo n;
    }
  else { hi = Int64.shift_left a.lo (n - 64); lo = 0L }

let shift_right_logical a n =
  let n = n land 127 in
  if n = 0 then a
  else if n < 64 then
    {
      hi = Int64.shift_right_logical a.hi n;
      lo =
        Int64.logor
          (Int64.shift_right_logical a.lo n)
          (Int64.shift_left a.hi (64 - n));
    }
  else { hi = 0L; lo = Int64.shift_right_logical a.hi (n - 64) }

let shift_right a n =
  let n = n land 127 in
  if n = 0 then a
  else if n < 64 then
    {
      hi = Int64.shift_right a.hi n;
      lo =
        Int64.logor
          (Int64.shift_right_logical a.lo n)
          (Int64.shift_left a.hi (64 - n));
    }
  else { hi = Int64.shift_right a.hi 63; lo = Int64.shift_right a.hi (n - 64) }

(* Unsigned division. Operands below 2^64 divide in one [Int64] step;
   wider ones go through binary long division on the magnitudes, which is
   slow but never on a hot per-tuple path with large divisors. *)
let udivmod a b =
  if equal b zero then raise Division_by_zero;
  if Int64.equal a.hi 0L && Int64.equal b.hi 0L then
    ({ hi = 0L; lo = Int64.unsigned_div a.lo b.lo }, { hi = 0L; lo = Int64.unsigned_rem a.lo b.lo })
  else begin
    let q = ref zero and r = ref zero in
    for i = 127 downto 0 do
      r := shift_left !r 1;
      let bit = Int64.logand (Int64.shift_right_logical (shift_right_logical a i).lo 0) 1L in
      if Int64.equal (Int64.logand bit 1L) 1L then r := logor !r one;
      if compare_unsigned !r b >= 0 then begin
        r := sub !r b;
        q := logor !q (shift_left one i)
      end
    done;
    (!q, !r)
  end

(* Truncating signed division: the quotient rounds toward zero and the
   remainder takes the dividend's sign. Operands in the signed 64-bit
   range divide with [Int64]; the one quotient outside that range,
   min_int / -1 = 2^63, is the 128-bit negation. *)
let divmod a b =
  if fits64 a && fits64 b then begin
    if Int64.equal b.lo 0L then raise Division_by_zero;
    if Int64.equal b.lo (-1L) then (neg a, zero)
    else (of_int64 (Int64.div a.lo b.lo), of_int64 (Int64.rem a.lo b.lo))
  end
  else begin
    let sa = is_negative a and sb = is_negative b in
    let ua = if sa then neg a else a and ub = if sb then neg b else b in
    let q, r = udivmod ua ub in
    let q = if sa <> sb then neg q else q in
    let r = if sa then neg r else r in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mul_overflows a b =
  (* two signed 64-bit factors: |a * b| <= 2^126 always fits *)
  if fits64 a && fits64 b then false
  else if equal a zero || equal b zero then false
  else if equal a min_int || equal b min_int then
    (* min_int * x overflows unless x = 1. *)
    not (equal a one || equal b one)
  else
    let p = mul a b in
    if equal p zero then true else not (equal (div p b) a)

let ten = of_int 10

let to_string x =
  if equal x zero then "0"
  else begin
    let neg_in = is_negative x in
    let buf = Buffer.create 40 in
    let rec go v =
      if not (equal v zero) then begin
        let q, r = udivmod v ten in
        Buffer.add_char buf (Char.chr (Char.code '0' + Int64.to_int r.lo));
        go q
      end
    in
    go (if neg_in then neg x else x);
    let digits = Buffer.contents buf in
    let n = String.length digits in
    let out = Bytes.create (n + if neg_in then 1 else 0) in
    let off = if neg_in then (Bytes.set out 0 '-'; 1) else 0 in
    for i = 0 to n - 1 do
      Bytes.set out (off + i) digits.[n - 1 - i]
    done;
    Bytes.to_string out
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "I128.of_string";
  let neg_in = s.[0] = '-' in
  let start = if neg_in || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "I128.of_string";
  let acc = ref zero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "I128.of_string";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_in then neg !acc else !acc

let to_float x =
  if is_negative x then
    let m = neg x in
    -.((Int64.to_float m.hi *. 18446744073709551616.0)
       +. Int64.to_float (Int64.shift_right_logical m.lo 1) *. 2.0
       +. Int64.to_float (Int64.logand m.lo 1L))
  else
    (Int64.to_float x.hi *. 18446744073709551616.0)
    +. Int64.to_float (Int64.shift_right_logical x.lo 1) *. 2.0
    +. Int64.to_float (Int64.logand x.lo 1L)

let pp fmt x = Format.pp_print_string fmt (to_string x)
