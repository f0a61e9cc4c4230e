(** Physical query plans.

    Operators are already "implementation-selected" (hash join, hash
    aggregation, sort) — the code generator consumes these directly in the
    produce/consume style. Column references are positional into the child
    operator's output. *)

type order = Asc | Desc

type agg =
  | Count_star
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t
      (** compiled as [Sum e]'s state and the group's shared count, divided
          when the group is read (128-bit division for decimals); shares
          both with any [Sum e] and [Count_star] of the same group-by *)

type t =
  | Scan of { table : string; filter : Expr.t option }
  | Filter of { input : t; pred : Expr.t }
  | Project of { input : t; exprs : Expr.t list }
  | Hash_join of {
      build : t;
      probe : t;
      build_keys : Expr.t list;
      probe_keys : Expr.t list;
    }  (** inner equi-join; output = probe columns ++ build columns *)
  | Group_by of { input : t; keys : Expr.t list; aggs : agg list }
      (** output = keys ++ aggregate results *)
  | Order_by of { input : t; keys : (Expr.t * order) list; limit : int option }
  | Limit of { input : t; n : int }

type catalog = (string * Qcomp_storage.Schema.t) list

exception Plan_error of string

let plan_fail fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

let schema_of catalog name =
  match List.assoc_opt name catalog with
  | Some s -> s
  | None -> plan_fail "unknown table %s" name

(** Output column types of an operator. *)
let rec output_tys (catalog : catalog) (op : t) : Sqlty.t array =
  match op with
  | Scan { table; _ } ->
      let s = schema_of catalog table in
      Array.map
        (fun (c : Qcomp_storage.Schema.column) -> Sqlty.of_col_ty c.Qcomp_storage.Schema.col_ty)
        s.Qcomp_storage.Schema.cols
  | Filter { input; pred } ->
      let tys = output_tys catalog input in
      if Expr.type_of tys pred <> Sqlty.Bool then plan_fail "filter predicate not boolean";
      tys
  | Project { input; exprs } ->
      let tys = output_tys catalog input in
      Array.of_list (List.map (Expr.type_of tys) exprs)
  | Hash_join { build; probe; build_keys; probe_keys } ->
      let bt = output_tys catalog build and pt = output_tys catalog probe in
      if List.length build_keys <> List.length probe_keys then
        plan_fail "join key arity mismatch";
      List.iter2
        (fun bk pk ->
          let tb = Expr.type_of bt bk and tp = Expr.type_of pt pk in
          let compat =
            Sqlty.equal tb tp
            || (Sqlty.is_numeric tb && Sqlty.is_numeric tp)
            || (tb = Sqlty.Date && tp = Sqlty.Date)
          in
          if not compat then
            plan_fail "join key type mismatch: %s vs %s" (Sqlty.to_string tb)
              (Sqlty.to_string tp))
        build_keys probe_keys;
      Array.append pt bt
  | Group_by { input; keys; aggs } ->
      let tys = output_tys catalog input in
      let key_tys = List.map (Expr.type_of tys) keys in
      let agg_ty = function
        | Count_star -> Sqlty.Int64
        | Sum e -> (
            match Expr.type_of tys e with
            | Sqlty.Decimal s -> Sqlty.Decimal s
            | Sqlty.Int32 | Sqlty.Int64 -> Sqlty.Int64
            | t -> plan_fail "sum over %s" (Sqlty.to_string t))
        | Min e | Max e -> Expr.type_of tys e
        | Avg e -> (
            match Expr.type_of tys e with
            | Sqlty.Decimal s -> Sqlty.Decimal s
            | Sqlty.Int32 | Sqlty.Int64 -> Sqlty.Int64
            | t -> plan_fail "avg over %s" (Sqlty.to_string t))
      in
      Array.of_list (key_tys @ List.map agg_ty aggs)
  | Order_by { input; keys; _ } ->
      let tys = output_tys catalog input in
      List.iter (fun (k, _) -> ignore (Expr.type_of tys k)) keys;
      tys
  | Limit { input; _ } -> output_tys catalog input

(** Count operators (used by workload statistics). *)
let rec num_operators = function
  | Scan _ -> 1
  | Filter { input; _ } | Project { input; _ } | Order_by { input; _ }
  | Limit { input; _ } ->
      1 + num_operators input
  | Hash_join { build; probe; _ } -> 1 + num_operators build + num_operators probe
  | Group_by { input; _ } -> 1 + num_operators input

let rec num_joins = function
  | Scan _ -> 0
  | Filter { input; _ } | Project { input; _ } | Order_by { input; _ }
  | Limit { input; _ } | Group_by { input; _ } ->
      num_joins input
  | Hash_join { build; probe; _ } -> 1 + num_joins build + num_joins probe
