(* Order statistics, compile-sample batching and the regression verdict of
   the end-to-end benchmark. Pure functions, unit-tested in test_e2e.ml. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples: the formula
   Report.assemble uses, so serving percentiles read the same here. *)
let rank ~n p = max 1 (min n (int_of_float (ceil (p *. float_of_int n))))

(* A tail percentile is reported only when at least this many samples lie
   beyond it; below that it is one or two unlucky samples, not a tail. *)
let min_beyond = 10

let beyond ~n p = n - rank ~n p

(** Nearest-rank percentile [p] (0 < p <= 1) of [xs]. Raises
    [Invalid_argument] when fewer than {!min_beyond} samples lie beyond it
    (p = 0.5 of 1,000 samples is fine; p = 0.99 needs 1,000). *)
let percentile xs p =
  let n = List.length xs in
  if n = 0 || beyond ~n p < min_beyond then
    invalid_arg
      (Printf.sprintf
         "Stats.percentile: p%g of %d samples leaves %d beyond it (< %d)"
         (100.0 *. p) n (max 0 (beyond ~n p)) min_beyond);
  (sorted xs).(rank ~n p - 1)

(** Median, averaging the middle pair, as Python's [statistics.median]. *)
let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stats.median: no samples"
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** First, second and third quartile by the exclusive method of Python's
    [statistics.quantiles(xs, n=4)], so spreads computed here match the
    ones an external check computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: needs at least two samples";
  let m = n + 1 in
  let q i =
    let j = min (n - 1) (max 1 (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(** Quartile spread as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(** One compile sample: run [f] back to back until at least [min_s] has
    elapsed on [now], and return (seconds per call, calls). Short sweeps are
    batched so a sample is never shorter than the clock's noise floor. *)
let batched ~now ~min_s f =
  let t0 = now () in
  let rec go calls =
    f ();
    let elapsed = now () -. t0 in
    if elapsed >= min_s then (elapsed /. float_of_int calls, calls)
    else go (calls + 1)
  in
  go 1

type verdict = Ok_within | Better | Worse | Unresolved

let verdict_name = function
  | Ok_within -> "ok"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(** Compare a change's runs [b] against the parent's runs [a] for one
    metric. [lower_better] gives the direction, [bound] the share of the
    parent's median by which the change may be worse. A metric whose own
    quartile spread (on either side) exceeds the bound is [Unresolved],
    unless every run of the change beats every run of the parent. *)
let verdict ~lower_better ~bound a b =
  let ma = median a and mb = median b in
  let worse_by =
    if ma = 0.0 then 0.0
    else (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma
  in
  let dominates =
    if lower_better then List.fold_left max neg_infinity b < List.fold_left min infinity a
    else List.fold_left min infinity b > List.fold_left max neg_infinity a
  in
  let noisy xs = List.length xs >= 2 && spread xs > bound in
  if noisy a || noisy b then if dominates then Better else Unresolved
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Ok_within
