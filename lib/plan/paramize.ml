(** Plan normalization: split a plan into a canonical {e shape} and a
    {e parameter vector}.

    Real workloads repeat the same plan shapes with different literals, so
    caching compiled code per whole plan recompiles on every literal
    change. [normalize] rewrites eligible literals to {!Expr.Param} holes
    (numbered in deterministic pre-order) and returns the extracted values;
    a shape-keyed cache then compiles once per shape and binds the vector
    at claim time. [denormalize] is the exact inverse, so
    [denormalize (normalize p)] reproduces [p] and normalizing a shape is
    the identity on it (holes are never re-extracted).

    Eligible literals:
    - [Const_int] of [Int32]/[Int64]/[Date]/[Decimal _]. [Bool] constants
      stay in the shape — they select code paths, not data values.
    - [Const_str] no longer than the SSO inline capacity (12 bytes), so a
      bound string always fits one claimable 16-byte struct with no
      out-of-line body to manage per instance.

    Everything else is shape: [Like] patterns (baked into the matcher),
    [Limit]/[Order_by] counts (they size runtime structures), and any
    pre-existing [Param] holes. *)

type value =
  | V_int of Sqlty.t * int64  (** Int32/Int64/Date/Decimal literal *)
  | V_str of string  (** string literal, length <= {!sso_inline_max} *)

(** Bump when the normalization rules or [value] encoding change; folded
    into snapshot keys so stale unbound-hole artifacts are refused. *)
let format_version = 1

(** Mirror of [Qcomp_runtime.Sso.inline_max] — lib/plan sits below the
    runtime, so the constant is restated here (checked by a test). *)
let sso_inline_max = 12

let value_ty = function V_int (ty, _) -> ty | V_str _ -> Sqlty.Str

let pp_value ppf = function
  | V_int (ty, v) -> Format.fprintf ppf "%s:%Ld" (Sqlty.to_string ty) v
  | V_str s -> Format.fprintf ppf "%S" s

let eligible_int ty =
  match ty with
  | Sqlty.Int32 | Sqlty.Int64 | Sqlty.Date | Sqlty.Decimal _ -> true
  | Sqlty.Str | Sqlty.Bool -> false

let eligible_str s = String.length s <= sso_inline_max

(* ---------------- normalize ---------------- *)

type extractor = { mutable rev : value list; mutable next : int }

let take x v =
  let i = x.next in
  x.rev <- v :: x.rev;
  x.next <- i + 1;
  i

let rec norm_expr x (e : Expr.t) : Expr.t =
  match e with
  | Expr.Col _ | Expr.Param _ -> e
  | Expr.Const_int (ty, v) ->
      if eligible_int ty then Expr.Param (ty, take x (V_int (ty, v))) else e
  | Expr.Const_str s ->
      if eligible_str s then Expr.Param (Sqlty.Str, take x (V_str s)) else e
  | Expr.Add (a, b) ->
      let a = norm_expr x a in
      Expr.Add (a, norm_expr x b)
  | Expr.Sub (a, b) ->
      let a = norm_expr x a in
      Expr.Sub (a, norm_expr x b)
  | Expr.Mul (a, b) ->
      let a = norm_expr x a in
      Expr.Mul (a, norm_expr x b)
  | Expr.Div (a, b) ->
      let a = norm_expr x a in
      Expr.Div (a, norm_expr x b)
  | Expr.Neg a -> Expr.Neg (norm_expr x a)
  | Expr.Cmp (p, a, b) ->
      let a = norm_expr x a in
      Expr.Cmp (p, a, norm_expr x b)
  | Expr.And (a, b) ->
      let a = norm_expr x a in
      Expr.And (a, norm_expr x b)
  | Expr.Or (a, b) ->
      let a = norm_expr x a in
      Expr.Or (a, norm_expr x b)
  | Expr.Not a -> Expr.Not (norm_expr x a)
  | Expr.Like (a, pat) -> Expr.Like (norm_expr x a, pat)
  | Expr.Between (v, lo, hi) ->
      let v = norm_expr x v in
      let lo = norm_expr x lo in
      Expr.Between (v, lo, norm_expr x hi)
  | Expr.Case (whens, els) ->
      let whens =
        List.map
          (fun (w, t) ->
            let w = norm_expr x w in
            (w, norm_expr x t))
          whens
      in
      Expr.Case (whens, norm_expr x els)
  | Expr.Cast (a, ty) -> Expr.Cast (norm_expr x a, ty)

let norm_agg x (a : Algebra.agg) : Algebra.agg =
  match a with
  | Algebra.Count_star -> a
  | Algebra.Sum e -> Algebra.Sum (norm_expr x e)
  | Algebra.Min e -> Algebra.Min (norm_expr x e)
  | Algebra.Max e -> Algebra.Max (norm_expr x e)
  | Algebra.Avg e -> Algebra.Avg (norm_expr x e)

let rec norm_plan x (p : Algebra.t) : Algebra.t =
  match p with
  | Algebra.Scan { table; filter } ->
      Algebra.Scan { table; filter = Option.map (norm_expr x) filter }
  | Algebra.Filter { input; pred } ->
      let input = norm_plan x input in
      Algebra.Filter { input; pred = norm_expr x pred }
  | Algebra.Project { input; exprs } ->
      let input = norm_plan x input in
      Algebra.Project { input; exprs = List.map (norm_expr x) exprs }
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      let build = norm_plan x build in
      let probe = norm_plan x probe in
      let build_keys = List.map (norm_expr x) build_keys in
      Algebra.Hash_join
        { build; probe; build_keys; probe_keys = List.map (norm_expr x) probe_keys }
  | Algebra.Group_by { input; keys; aggs } ->
      let input = norm_plan x input in
      let keys = List.map (norm_expr x) keys in
      Algebra.Group_by { input; keys; aggs = List.map (norm_agg x) aggs }
  | Algebra.Order_by { input; keys; limit } ->
      let input = norm_plan x input in
      let keys =
        List.map
          (fun (k, ord) ->
            let k = norm_expr x k in
            (k, ord))
          keys
      in
      Algebra.Order_by { input; keys; limit }
  | Algebra.Limit { input; n } -> Algebra.Limit { input = norm_plan x input; n }

(** Extract eligible literals from [p]: the canonical shape plus the
    parameter vector, hole [i] holding the value [params.(i)]. A plan with
    no eligible literals returns an empty vector and (up to sharing) the
    same plan. *)
let normalize (p : Algebra.t) : Algebra.t * value array =
  let x = { rev = []; next = 0 } in
  let shape = norm_plan x p in
  (shape, Array.of_list (List.rev x.rev))

(* ---------------- denormalize ---------------- *)

let subst_fail fmt = Format.kasprintf invalid_arg fmt

let rec subst_expr params (e : Expr.t) : Expr.t =
  match e with
  | Expr.Col _ | Expr.Const_int _ | Expr.Const_str _ -> e
  | Expr.Param (ty, i) -> (
      if i < 0 || i >= Array.length params then
        subst_fail "Paramize.denormalize: hole %d outside vector of %d" i
          (Array.length params);
      match params.(i) with
      | V_int (vty, v) ->
          if not (Sqlty.equal ty vty) then
            subst_fail "Paramize.denormalize: hole %d is %s, value is %s"
              i (Sqlty.to_string ty) (Sqlty.to_string vty);
          Expr.Const_int (vty, v)
      | V_str s ->
          if not (Sqlty.equal ty Sqlty.Str) then
            subst_fail "Paramize.denormalize: hole %d is %s, value is a string"
              i (Sqlty.to_string ty);
          Expr.Const_str s)
  | Expr.Add (a, b) -> Expr.Add (subst_expr params a, subst_expr params b)
  | Expr.Sub (a, b) -> Expr.Sub (subst_expr params a, subst_expr params b)
  | Expr.Mul (a, b) -> Expr.Mul (subst_expr params a, subst_expr params b)
  | Expr.Div (a, b) -> Expr.Div (subst_expr params a, subst_expr params b)
  | Expr.Neg a -> Expr.Neg (subst_expr params a)
  | Expr.Cmp (p, a, b) -> Expr.Cmp (p, subst_expr params a, subst_expr params b)
  | Expr.And (a, b) -> Expr.And (subst_expr params a, subst_expr params b)
  | Expr.Or (a, b) -> Expr.Or (subst_expr params a, subst_expr params b)
  | Expr.Not a -> Expr.Not (subst_expr params a)
  | Expr.Like (a, pat) -> Expr.Like (subst_expr params a, pat)
  | Expr.Between (v, lo, hi) ->
      Expr.Between (subst_expr params v, subst_expr params lo, subst_expr params hi)
  | Expr.Case (whens, els) ->
      Expr.Case
        ( List.map (fun (w, t) -> (subst_expr params w, subst_expr params t)) whens,
          subst_expr params els )
  | Expr.Cast (a, ty) -> Expr.Cast (subst_expr params a, ty)

let subst_agg params (a : Algebra.agg) : Algebra.agg =
  match a with
  | Algebra.Count_star -> a
  | Algebra.Sum e -> Algebra.Sum (subst_expr params e)
  | Algebra.Min e -> Algebra.Min (subst_expr params e)
  | Algebra.Max e -> Algebra.Max (subst_expr params e)
  | Algebra.Avg e -> Algebra.Avg (subst_expr params e)

let rec subst_plan params (p : Algebra.t) : Algebra.t =
  match p with
  | Algebra.Scan { table; filter } ->
      Algebra.Scan { table; filter = Option.map (subst_expr params) filter }
  | Algebra.Filter { input; pred } ->
      Algebra.Filter
        { input = subst_plan params input; pred = subst_expr params pred }
  | Algebra.Project { input; exprs } ->
      Algebra.Project
        { input = subst_plan params input; exprs = List.map (subst_expr params) exprs }
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      Algebra.Hash_join
        {
          build = subst_plan params build;
          probe = subst_plan params probe;
          build_keys = List.map (subst_expr params) build_keys;
          probe_keys = List.map (subst_expr params) probe_keys;
        }
  | Algebra.Group_by { input; keys; aggs } ->
      Algebra.Group_by
        {
          input = subst_plan params input;
          keys = List.map (subst_expr params) keys;
          aggs = List.map (subst_agg params) aggs;
        }
  | Algebra.Order_by { input; keys; limit } ->
      Algebra.Order_by
        {
          input = subst_plan params input;
          keys = List.map (fun (k, ord) -> (subst_expr params k, ord)) keys;
          limit;
        }
  | Algebra.Limit { input; n } -> Algebra.Limit { input = subst_plan params input; n }

(* ---------------- queries over shapes ---------------- *)

let rec expr_params (e : Expr.t) acc =
  match e with
  | Expr.Col _ | Expr.Const_int _ | Expr.Const_str _ -> acc
  | Expr.Param (_, i) -> max acc (i + 1)
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b)
  | Expr.And (a, b) | Expr.Or (a, b) | Expr.Cmp (_, a, b) ->
      expr_params a (expr_params b acc)
  | Expr.Neg a | Expr.Not a | Expr.Cast (a, _) | Expr.Like (a, _) ->
      expr_params a acc
  | Expr.Between (v, lo, hi) -> expr_params v (expr_params lo (expr_params hi acc))
  | Expr.Case (whens, els) ->
      List.fold_left
        (fun acc (w, t) -> expr_params w (expr_params t acc))
        (expr_params els acc) whens

let agg_params (a : Algebra.agg) acc =
  match a with
  | Algebra.Count_star -> acc
  | Algebra.Sum e | Algebra.Min e | Algebra.Max e | Algebra.Avg e ->
      expr_params e acc

(** Number of parameter slots a shape expects (1 + highest hole index;
    0 when the plan has no holes). *)
let rec param_count (p : Algebra.t) : int =
  match p with
  | Algebra.Scan { filter; _ } -> (
      match filter with None -> 0 | Some e -> expr_params e 0)
  | Algebra.Filter { input; pred } -> max (param_count input) (expr_params pred 0)
  | Algebra.Project { input; exprs } ->
      List.fold_left (fun acc e -> expr_params e acc) (param_count input) exprs
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      let acc = max (param_count build) (param_count probe) in
      List.fold_left
        (fun acc e -> expr_params e acc)
        acc (build_keys @ probe_keys)
  | Algebra.Group_by { input; keys; aggs } ->
      let acc =
        List.fold_left (fun acc e -> expr_params e acc) (param_count input) keys
      in
      List.fold_left (fun acc a -> agg_params a acc) acc aggs
  | Algebra.Order_by { input; keys; _ } ->
      List.fold_left
        (fun acc (k, _) -> expr_params k acc)
        (param_count input) keys
  | Algebra.Limit { input; _ } -> param_count input

let rec expr_iter_params f (e : Expr.t) =
  match e with
  | Expr.Col _ | Expr.Const_int _ | Expr.Const_str _ -> ()
  | Expr.Param (ty, i) -> f ty i
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b)
  | Expr.And (a, b) | Expr.Or (a, b) | Expr.Cmp (_, a, b) ->
      expr_iter_params f a;
      expr_iter_params f b
  | Expr.Neg a | Expr.Not a | Expr.Cast (a, _) | Expr.Like (a, _) ->
      expr_iter_params f a
  | Expr.Between (v, lo, hi) ->
      expr_iter_params f v;
      expr_iter_params f lo;
      expr_iter_params f hi
  | Expr.Case (whens, els) ->
      List.iter
        (fun (w, t) ->
          expr_iter_params f w;
          expr_iter_params f t)
        whens;
      expr_iter_params f els

let rec plan_iter_params f (p : Algebra.t) =
  let ex = expr_iter_params f in
  match p with
  | Algebra.Scan { filter; _ } -> Option.iter ex filter
  | Algebra.Filter { input; pred } ->
      plan_iter_params f input;
      ex pred
  | Algebra.Project { input; exprs } ->
      plan_iter_params f input;
      List.iter ex exprs
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      plan_iter_params f build;
      plan_iter_params f probe;
      List.iter ex (build_keys @ probe_keys)
  | Algebra.Group_by { input; keys; aggs } ->
      plan_iter_params f input;
      List.iter ex keys;
      List.iter
        (function
          | Algebra.Count_star -> ()
          | Algebra.Sum e | Algebra.Min e | Algebra.Max e | Algebra.Avg e ->
              ex e)
        aggs
  | Algebra.Order_by { input; keys; _ } ->
      plan_iter_params f input;
      List.iter (fun (k, _) -> ex k) keys
  | Algebra.Limit { input; _ } -> plan_iter_params f input

(** Declared [Sqlty.t] of each parameter slot of [shape] — the signature
    codegen stamps on the IR module so back-ends size an artifact's
    parameter descriptor by declaration, not by which holes happen to
    survive dead-code elimination (a hole in a never-consumed projection
    column still occupies its slot in the bound vector). *)
let param_tys (shape : Algebra.t) : Sqlty.t array =
  let tys = Array.make (param_count shape) Sqlty.Int64 in
  plan_iter_params (fun ty i -> tys.(i) <- ty) shape;
  tys

(** Substitute every hole in [shape] with its literal from [params] — the
    inverse of {!normalize}. Raises [Invalid_argument] on a vector whose
    length differs from the shape's hole count or a type mismatch between
    hole and value. *)
let denormalize (shape : Algebra.t) (params : value array) : Algebra.t =
  let expected = param_count shape in
  if Array.length params <> expected then
    invalid_arg
      (Printf.sprintf "Paramize.denormalize: %d values for %d holes"
         (Array.length params) expected);
  subst_plan params shape
