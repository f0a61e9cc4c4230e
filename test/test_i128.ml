(* I128 arithmetic against small-integer oracles and algebraic laws. *)

open Qcomp_support

let check = Alcotest.check
let i128 = Alcotest.testable I128.pp I128.equal

let of64 = I128.of_int64

(* qcheck generator biased toward interesting boundary values *)
let gen_int64 =
  QCheck2.Gen.(
    oneof
      [
        map Int64.of_int small_signed_int;
        ui64 |> map (fun u -> Int64.sub u 0x8000_0000_0000_0000L);
        oneofl
          [
            0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x7FFF_FFFFL;
            0x8000_0000L; -4611686018427387904L;
          ];
      ])

let gen_i128 =
  QCheck2.Gen.(
    oneof
      [
        map of64 gen_int64;
        map2 (fun hi lo -> I128.make ~hi ~lo) gen_int64 gen_int64;
        oneofl [ I128.zero; I128.one; I128.minus_one; I128.min_int; I128.max_int ];
      ])

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let unit_cases =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check i128 "zero" (I128.make ~hi:0L ~lo:0L) I128.zero;
        check i128 "one" (of64 1L) I128.one;
        check i128 "minus_one" (I128.make ~hi:(-1L) ~lo:(-1L)) I128.minus_one;
        check Alcotest.bool "min<0" true (I128.is_negative I128.min_int);
        check Alcotest.bool "max>=0" false (I128.is_negative I128.max_int));
    Alcotest.test_case "of_int64 sign extension" `Quick (fun () ->
        check i128 "neg" (I128.make ~hi:(-1L) ~lo:(-5L)) (of64 (-5L));
        check i128 "pos" (I128.make ~hi:0L ~lo:5L) (of64 5L));
    Alcotest.test_case "to_int64_opt bounds" `Quick (fun () ->
        check Alcotest.(option int64) "max64" (Some Int64.max_int)
          (I128.to_int64_opt (of64 Int64.max_int));
        check Alcotest.(option int64) "min64" (Some Int64.min_int)
          (I128.to_int64_opt (of64 Int64.min_int));
        check Alcotest.(option int64) "max64+1" None
          (I128.to_int64_opt (I128.add (of64 Int64.max_int) I128.one)));
    Alcotest.test_case "string roundtrip" `Quick (fun () ->
        List.iter
          (fun s -> check Alcotest.string s s I128.(to_string (of_string s)))
          [
            "0"; "1"; "-1"; "12345678901234567890123456789";
            "-170141183460469231731687303715884105728" (* min *);
            "170141183460469231731687303715884105727" (* max *);
          ]);
    Alcotest.test_case "mul crossing 64 bits" `Quick (fun () ->
        (* 2^40 * 2^40 = 2^80 *)
        let v = I128.shift_left I128.one 40 in
        check i128 "2^80" (I128.shift_left I128.one 80) (I128.mul v v));
    Alcotest.test_case "div/rem signs" `Quick (fun () ->
        let d a b = I128.to_int64 (I128.div (of64 a) (of64 b)) in
        let r a b = I128.to_int64 (I128.rem (of64 a) (of64 b)) in
        check Alcotest.int64 "7/2" 3L (d 7L 2L);
        check Alcotest.int64 "-7/2" (-3L) (d (-7L) 2L);
        check Alcotest.int64 "7/-2" (-3L) (d 7L (-2L));
        check Alcotest.int64 "-7%2" (-1L) (r (-7L) 2L);
        check Alcotest.int64 "7%-2" 1L (r 7L (-2L)));
    Alcotest.test_case "div by zero raises" `Quick (fun () ->
        Alcotest.check_raises "raises" Division_by_zero (fun () ->
            ignore (I128.div I128.one I128.zero)));
    Alcotest.test_case "overflow predicates at extremes" `Quick (fun () ->
        check Alcotest.bool "max+1 ovf" true (I128.add_overflows I128.max_int I128.one);
        check Alcotest.bool "min-1 ovf" true (I128.sub_overflows I128.min_int I128.one);
        check Alcotest.bool "max+0 ok" false (I128.add_overflows I128.max_int I128.zero);
        check Alcotest.bool "min*-1 ovf" true (I128.mul_overflows I128.min_int I128.minus_one));
    Alcotest.test_case "umul64_wide known" `Quick (fun () ->
        (* 0xFFFFFFFFFFFFFFFF^2 = 0xFFFFFFFFFFFFFFFE_0000000000000001 *)
        check i128 "allones^2"
          (I128.make ~hi:(-2L) ~lo:1L)
          (I128.umul64_wide (-1L) (-1L)));
    Alcotest.test_case "smul64_wide known" `Quick (fun () ->
        check i128 "(-1)*(-1)" I128.one (I128.smul64_wide (-1L) (-1L));
        check i128 "min*min"
          (I128.shift_left I128.one 126)
          (I128.smul64_wide Int64.min_int Int64.min_int));
  ]

let props =
  [
    prop "add matches int64 in range" QCheck2.Gen.(pair gen_int64 gen_int64) (fun (a, b) ->
        (* compare through the 128-bit result to avoid 64-bit wrap *)
        let r = I128.add (of64 a) (of64 b) in
        QCheck2.assume (I128.to_int64_opt r <> None);
        Int64.add a b = I128.to_int64 r);
    prop "mul matches 64x64 wide" QCheck2.Gen.(pair gen_int64 gen_int64) (fun (a, b) ->
        I128.equal (I128.smul64_wide a b) (I128.mul (of64 a) (of64 b)));
    prop "add commutes" QCheck2.Gen.(pair gen_i128 gen_i128) (fun (a, b) ->
        I128.equal (I128.add a b) (I128.add b a));
    prop "add associates" QCheck2.Gen.(triple gen_i128 gen_i128 gen_i128)
      (fun (a, b, c) ->
        I128.equal (I128.add (I128.add a b) c) (I128.add a (I128.add b c)));
    prop "sub = add neg" QCheck2.Gen.(pair gen_i128 gen_i128) (fun (a, b) ->
        I128.equal (I128.sub a b) (I128.add a (I128.neg b)));
    prop "mul distributes" QCheck2.Gen.(triple gen_i128 gen_i128 gen_i128)
      (fun (a, b, c) ->
        I128.equal (I128.mul a (I128.add b c))
          (I128.add (I128.mul a b) (I128.mul a c)));
    prop "div/rem identity" QCheck2.Gen.(pair gen_i128 gen_i128) (fun (a, b) ->
        QCheck2.assume (not (I128.equal b I128.zero));
        (* avoid the single overflowing case min/-1 *)
        QCheck2.assume (not (I128.equal a I128.min_int && I128.equal b I128.minus_one));
        let q = I128.div a b and r = I128.rem a b in
        I128.equal a (I128.add (I128.mul q b) r));
    prop "rem magnitude < divisor" QCheck2.Gen.(pair gen_i128 gen_int64) (fun (a, b) ->
        QCheck2.assume (b <> 0L && b <> Int64.min_int);
        QCheck2.assume (not (I128.equal a I128.min_int));
        let r = I128.rem a (of64 b) in
        let abs x = if I128.is_negative x then I128.neg x else x in
        I128.compare (abs r) (abs (of64 b)) < 0);
    prop "shift_left then right roundtrips" QCheck2.Gen.(pair gen_int64 (int_bound 62))
      (fun (a, k) ->
        let v = of64 a in
        I128.equal v (I128.shift_right (I128.shift_left v k) k));
    prop "logical ops de morgan" QCheck2.Gen.(pair gen_i128 gen_i128) (fun (a, b) ->
        I128.equal
          (I128.lognot (I128.logand a b))
          (I128.logor (I128.lognot a) (I128.lognot b)));
    prop "compare antisymmetric" QCheck2.Gen.(pair gen_i128 gen_i128) (fun (a, b) ->
        compare (I128.compare a b) 0 = compare 0 (I128.compare b a));
    prop "string roundtrip" gen_i128 (fun a ->
        I128.equal a (I128.of_string (I128.to_string a)));
    prop "add_overflows consistent with widening sign" QCheck2.Gen.(pair gen_i128 gen_i128)
      (fun (a, b) ->
        let r = I128.add a b in
        let ovf = I128.add_overflows a b in
        (* overflow iff operands share a sign and the result flips it *)
        let sa = I128.is_negative a and sb = I128.is_negative b in
        if sa <> sb then not ovf else ovf = (I128.is_negative r <> sa));
    prop "neg involutive" gen_i128 (fun a -> I128.equal a (I128.neg (I128.neg a)));
    prop "to_float monotone-ish" QCheck2.Gen.(pair gen_int64 gen_int64) (fun (a, b) ->
        QCheck2.assume (Int64.abs a < 1000000L && Int64.abs b < 1000000L);
        (I128.to_float (of64 a) <= I128.to_float (of64 b)) = (a <= b) || a = b);
  ]

(* ---- division against the bit-serial oracle ----

   The 128-step long division I128 used for every operand size before
   its 64-bit fast paths, kept here as the reference they must match. *)
let udivmod_bitserial a b =
  if I128.equal b I128.zero then raise Division_by_zero;
  let q = ref I128.zero and r = ref I128.zero in
  for i = 127 downto 0 do
    r := I128.shift_left !r 1;
    if Int64.logand (I128.to_int64 (I128.shift_right_logical a i)) 1L = 1L then
      r := I128.logor !r I128.one;
    if I128.compare_unsigned !r b >= 0 then begin
      r := I128.sub !r b;
      q := I128.logor !q (I128.shift_left I128.one i)
    end
  done;
  (!q, !r)

let divmod_bitserial a b =
  let sa = I128.is_negative a and sb = I128.is_negative b in
  let q, r = udivmod_bitserial (if sa then I128.neg a else a) (if sb then I128.neg b else b) in
  ((if sa <> sb then I128.neg q else q), if sa then I128.neg r else r)

let mul_overflows_bitserial a b =
  if I128.equal a I128.zero || I128.equal b I128.zero then false
  else if I128.equal a I128.min_int || I128.equal b I128.min_int then
    not (I128.equal a I128.one || I128.equal b I128.one)
  else
    let p = I128.mul a b in
    I128.equal p I128.zero || not (I128.equal (fst (divmod_bitserial p b)) a)

(* the same result, or the same [Division_by_zero] *)
let same_division f g =
  match (f (), g ()) with
  | (q, r), (q', r') -> I128.equal q q' && I128.equal r r'
  | exception Division_by_zero -> (
      match g () with _ -> false | exception Division_by_zero -> true)

let division_props =
  let pair = QCheck2.Gen.pair gen_i128 gen_i128 in
  [
    prop "div/rem match the bit-serial oracle" pair (fun (a, b) ->
        same_division (fun () -> (I128.div a b, I128.rem a b)) (fun () -> divmod_bitserial a b));
    prop "64-bit div/rem match the bit-serial oracle, zero and min_int included"
      QCheck2.Gen.(pair gen_int64 gen_int64)
      (fun (a, b) ->
        let a = of64 a and b = of64 b in
        same_division (fun () -> (I128.div a b, I128.rem a b)) (fun () -> divmod_bitserial a b));
    prop "to_string of unsigned magnitudes matches the oracle's digits" gen_i128 (fun a ->
        (* to_string divides by ten through udivmod's 64-bit path *)
        let rec digits v acc =
          if I128.equal v I128.zero then acc
          else
            let q, r = udivmod_bitserial v (of64 10L) in
            digits q (Char.chr (48 + Int64.to_int (I128.to_int64 r)) :: acc)
        in
        let m = if I128.is_negative a then I128.neg a else a in
        QCheck2.assume (not (I128.equal a I128.min_int));
        let s = if I128.equal m I128.zero then "0" else String.of_seq (List.to_seq (digits m [])) in
        I128.to_string a = if I128.is_negative a then "-" ^ s else s);
    prop "mul_overflows matches the bit-serial oracle" pair (fun (a, b) ->
        I128.mul_overflows a b = mul_overflows_bitserial a b);
  ]

let division_cases =
  [
    Alcotest.test_case "64-bit division edges" `Quick (fun () ->
        let min64 = of64 Int64.min_int in
        check i128 "min_int / -1 = 2^63" (I128.make ~hi:0L ~lo:Int64.min_int)
          (I128.div min64 I128.minus_one);
        check i128 "min_int rem -1" I128.zero (I128.rem min64 I128.minus_one);
        check i128 "-7 / 2 truncates" (of64 (-3L)) (I128.div (of64 (-7L)) (of64 2L));
        check i128 "-7 rem 2 takes the dividend's sign" (of64 (-1L)) (I128.rem (of64 (-7L)) (of64 2L));
        (match I128.div (of64 5L) I128.zero with
        | exception Division_by_zero -> ()
        | _ -> Alcotest.fail "expected Division_by_zero");
        check Alcotest.bool "min_int64 squared fits" false (I128.mul_overflows min64 min64));
  ]

let suite = unit_cases @ props @ division_props @ division_cases
