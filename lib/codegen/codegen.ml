(** Data-centric code generation: physical plans to Umbra IR, in the
    produce/consume style (Sec. II of the paper).

    Plans are decomposed into pipelines; each pipeline becomes one main
    function (taking [(state, from, to)] for morsel-driven scans) plus small
    preparation/cleanup functions — matching the fine-grained function
    structure the paper describes. Stateful operators (hash tables, sort
    buffers, output) live in a per-query state block in VM memory; generated
    code reaches them through state slots.

    Conventions:
    - narrow integers are kept sign-extended in registers,
    - decimals are 128-bit inside the engine (64-bit in storage),
    - strings are pointers to 16-byte SSO structs and are copied by value
      into materialized tuples,
    - all user-data arithmetic uses the overflow-trapping instructions,
    - hash values are computed inline with [crc32]/[rotr]/[longmulfold]
      (Listing 2 of the paper); string hashing and equality call the
      runtime, which DirectEmit inlines for short strings. *)

open Qcomp_ir
open Qcomp_plan
module Memory = Qcomp_vm.Memory
module Sso = Qcomp_runtime.Sso
module Table = Qcomp_storage.Table
module Schema = Qcomp_storage.Schema

module Int_set = Set.Make (Int)

(** Side effect of a parallel pipeline body, from the host's point of view:
    which state slot holds the runtime object the body writes into, and how
    to give each execution lane a private copy that the barrier merges back.
    [ht_merge] names a generated combine function for aggregate tables
    (host-side payload blits would be wrong for partial aggregates); join
    tables and tuple buffers merge host-side. *)
type sink =
  | Sink_ht of { ht_slot : int; ht_payload : int; ht_merge : string option }
  | Sink_buf of { buf_slot : int; buf_row : int }

type step = {
  fn_name : string;
  range : [ `Table of string | `Whole ];
  par_safe : bool;
      (** body may run on several lanes over disjoint morsels, provided each
          lane redirects the [sinks] slots to lane-local objects *)
  sinks : sink list;
}

type compiled = {
  modul : Func.modul;
  steps : step list;
  state_size : int;
  fn_ptr_fixups : (int * string) list;
      (** state offset := code address of the named function *)
  output_slot : int;
  output_tys : Sqlty.t array;
  num_pipelines : int;
  const_strs : (string * int) list;
      (** string literal -> SSO struct address baked into the module's code
          as an immediate; code-cache snapshots re-materialize these at the
          same addresses before re-linking *)
}

type ctx = {
  modul : Func.modul;
  mem : Memory.t;
  catalog : Algebra.catalog;
  tables : (string * Table.t) list;
  qname : string;
  str_consts : (string, int) Hashtbl.t;
  mutable next_slot : int;
  mutable steps_rev : step list;
  mutable fixups : (int * string) list;
  mutable pipes : int;
  mutable fn_counter : int;
  mutable cur_sinks : sink list;
      (** sinks written by the pipeline body currently being emitted;
          consume callbacks register them as they emit writes *)
  mutable cur_unsafe : bool;
      (** set when the current body carries cross-lane mutable state that
          lane-local sinks cannot capture (e.g. a shared LIMIT counter) *)
}

(** Per-pipeline state threaded through consume callbacks. *)
type pipe = { b : Builder.t; exit_block : int }

type value = { vty : Sqlty.t; v : int }

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

let alloc_slot ctx =
  let s = ctx.next_slot in
  ctx.next_slot <- s + 8;
  s

(** Unique function name: [<query>_f<k>_<role>]. *)
let fresh_fn_name ctx role =
  ctx.fn_counter <- ctx.fn_counter + 1;
  Printf.sprintf "%s_f%d_%s" ctx.qname ctx.fn_counter role

let table_of ctx name =
  match List.assoc_opt name ctx.tables with
  | Some t -> t
  | None -> fail "no physical table %s" name

let ir_ty (ty : Sqlty.t) : Ty.t =
  match ty with
  | Sqlty.Int32 | Sqlty.Date -> Ty.I32
  | Sqlty.Int64 -> Ty.I64
  | Sqlty.Decimal _ -> Ty.I128
  | Sqlty.Str -> Ty.Ptr
  | Sqlty.Bool -> Ty.I1

let str_const ctx s =
  match Hashtbl.find_opt ctx.str_consts s with
  | Some addr -> addr
  | None ->
      let addr = Sso.alloc ctx.mem s in
      Hashtbl.add ctx.str_consts s addr;
      addr

(* ---------------- runtime call helpers ---------------- *)

let call_rt b name args_ty ret args = Builder.call b ~name ~args_ty ~ret args

let rt_ptr2_i64 b name a0 a1 =
  call_rt b name [| Ty.Ptr; Ty.Ptr |] Ty.I64 [ a0; a1 ]

(* ---------------- scale / coercion ---------------- *)

let rec pow10 n = if n = 0 then 1L else Int64.mul 10L (pow10 (n - 1))

let widen_to_i64 b (v : value) =
  match v.vty with
  | Sqlty.Int64 -> v.v
  | Sqlty.Int32 | Sqlty.Date -> Builder.sext b Ty.I64 v.v
  | Sqlty.Bool -> Builder.zext b Ty.I64 v.v
  | t -> fail "cannot widen %s to int64" (Sqlty.to_string t)

(** Coerce a value to [want] (numeric widenings and decimal rescaling). *)
let coerce b (v : value) (want : Sqlty.t) : value =
  if Sqlty.equal v.vty want then v
  else
    match (v.vty, want) with
    | (Sqlty.Int32 | Sqlty.Date), Sqlty.Int64 ->
        { vty = want; v = Builder.sext b Ty.I64 v.v }
    | Sqlty.Int64, (Sqlty.Int32 | Sqlty.Date) ->
        { vty = want; v = Builder.trunc b Ty.I32 v.v }
    | Sqlty.Int32, Sqlty.Date | Sqlty.Date, Sqlty.Int32 -> { v with vty = want }
    | (Sqlty.Int32 | Sqlty.Int64 | Sqlty.Date), Sqlty.Decimal s ->
        let wide = Builder.sext b Ty.I128 v.v in
        let v' =
          if s = 0 then wide
          else
            let f = Builder.const b Ty.I64 (pow10 s) in
            let f128 = Builder.sext b Ty.I128 f in
            Builder.mul b Ty.I128 wide f128
        in
        { vty = want; v = v' }
    | Sqlty.Decimal s1, Sqlty.Decimal s2 when s2 >= s1 ->
        let v' =
          if s1 = s2 then v.v
          else
            let f = Builder.const b Ty.I64 (pow10 (s2 - s1)) in
            let f128 = Builder.sext b Ty.I128 f in
            Builder.mul b Ty.I128 v.v f128
        in
        { vty = want; v = v' }
    | Sqlty.Bool, Sqlty.Int32 -> { vty = want; v = Builder.zext b Ty.I32 v.v }
    | Sqlty.Bool, Sqlty.Int64 -> { vty = want; v = Builder.zext b Ty.I64 v.v }
    | a, bty ->
        fail "cannot coerce %s to %s" (Sqlty.to_string a) (Sqlty.to_string bty)

(* ---------------- trap blocks ---------------- *)

let emit_div_zero_check b (divisor : value) =
  let zero =
    match divisor.vty with
    | Sqlty.Decimal _ ->
        let z = Builder.const b Ty.I64 0L in
        Builder.sext b Ty.I128 z
    | _ -> Builder.const b (ir_ty divisor.vty) 0L
  in
  let is_zero = Builder.cmp b Op.Eq divisor.v zero in
  let trap = Builder.new_block b in
  let ok = Builder.new_block b in
  Builder.condbr b is_zero ~then_:trap ~else_:ok;
  Builder.switch_to b trap;
  ignore (call_rt b "umbra_throwDivZero" [||] Ty.Void []);
  Builder.unreachable b;
  Builder.switch_to b ok

(* ---------------- expression compilation ---------------- *)

let pred_to_cmp (p : Expr.pred) : Op.cmp =
  match p with
  | Expr.Eq -> Op.Eq
  | Expr.Ne -> Op.Ne
  | Expr.Lt -> Op.Slt
  | Expr.Le -> Op.Sle
  | Expr.Gt -> Op.Sgt
  | Expr.Ge -> Op.Sge

let rec compile_expr ctx (p : pipe) (env : value option array)
    (tys : Sqlty.t array) (e : Expr.t) : value =
  let b = p.b in
  let recur = compile_expr ctx p env tys in
  match e with
  | Expr.Col i -> (
      match env.(i) with
      | Some v -> v
      | None -> fail "column %d not materialized (needed-set bug)" i)
  | Expr.Const_int (ty, v) -> (
      match ty with
      | Sqlty.Decimal _ ->
          { vty = ty; v = Builder.const128 b (Qcomp_support.I128.of_int64 v) }
      | _ -> { vty = ty; v = Builder.const b (ir_ty ty) v })
  | Expr.Const_str s ->
      { vty = Sqlty.Str; v = Builder.const_ptr b (Int64.of_int (str_const ctx s)) }
  | Expr.Param (ty, idx) ->
      (* same IR types as the Const cases above, so a shape's module is
         structurally identical to the whole-plan module modulo holes *)
      { vty = ty; v = Builder.param b (ir_ty ty) idx }
  | Expr.Add (x, y) | Expr.Sub (x, y) | Expr.Mul (x, y) ->
      let vx = recur x and vy = recur y in
      let op_tag =
        match e with
        | Expr.Add _ -> `Add
        | Expr.Sub _ -> `Sub
        | _ -> `Mul
      in
      let rty = Expr.numeric_join op_tag vx.vty vy.vty in
      compile_arith ctx p op_tag vx vy rty
  | Expr.Div (x, y) ->
      let vx = recur x and vy = recur y in
      let rty = Expr.numeric_join `Div vx.vty vy.vty in
      compile_div ctx p vx vy rty
  | Expr.Neg x ->
      let vx = recur x in
      let zero = { vty = vx.vty; v = Builder.const b (ir_ty vx.vty) 0L } in
      let zero =
        match vx.vty with
        | Sqlty.Decimal s -> coerce b { vty = Sqlty.Int64; v = Builder.const b Ty.I64 0L } (Sqlty.Decimal s)
        | _ -> zero
      in
      compile_arith ctx p `Sub zero vx vx.vty
  | Expr.Cmp (pred, x, y) -> compile_cmp ctx p (recur x) (recur y) pred
  | Expr.And (x, y) ->
      let vx = recur x and vy = recur y in
      { vty = Sqlty.Bool; v = Builder.and_ b Ty.I1 vx.v vy.v }
  | Expr.Or (x, y) ->
      let vx = recur x and vy = recur y in
      { vty = Sqlty.Bool; v = Builder.or_ b Ty.I1 vx.v vy.v }
  | Expr.Not x ->
      let vx = recur x in
      let one = Builder.const b Ty.I1 1L in
      { vty = Sqlty.Bool; v = Builder.xor b Ty.I1 vx.v one }
  | Expr.Like (s, pat) ->
      (* a pattern without wildcards matches only itself: string equality,
         which is cheaper on every back-end and inline on DirectEmit; one
         whose only wildcard is a trailing [%] is a prefix test *)
      let vs = recur s in
      let wild c = c = '%' || c = '_' in
      let n = String.length pat in
      let fn, lit =
        if not (String.exists wild pat) then ("umbra_strEq", pat)
        else if n > 0 && pat.[n - 1] = '%' && not (String.exists wild (String.sub pat 0 (n - 1)))
        then ("umbra_strPrefix", String.sub pat 0 (n - 1))
        else ("umbra_strLike", pat)
      in
      let vp = Builder.const_ptr b (Int64.of_int (str_const ctx lit)) in
      let r = rt_ptr2_i64 b fn vs.v vp in
      let zero = Builder.const b Ty.I64 0L in
      { vty = Sqlty.Bool; v = Builder.cmp b Op.Ne r zero }
  | Expr.Between (v, lo, hi) ->
      recur Expr.(And (Cmp (Ge, v, lo), Cmp (Le, v, hi)))
  | Expr.Case (whens, els) -> compile_case ctx p env tys whens els
  | Expr.Cast (x, ty) -> coerce b (recur x) ty

and compile_arith ctx (p : pipe) op (vx : value) (vy : value) (rty : Sqlty.t) :
    value =
  ignore ctx;
  let b = p.b in
  match rty with
  | Sqlty.Decimal _ -> (
      (* operands stay at their own scale for Mul; Add/Sub align to rty *)
      let to128 (v : value) =
        match v.vty with
        | Sqlty.Decimal _ -> v.v
        | _ -> Builder.sext b Ty.I128 (widen_to_i64 b v)
      in
      match op with
      | `Mul ->
          let x = to128 vx and y = to128 vy in
          { vty = rty; v = Builder.smultrap b Ty.I128 x y }
      | `Add | `Sub ->
          let x = (coerce b vx rty).v and y = (coerce b vy rty).v in
          let f = if op = `Add then Builder.saddtrap else Builder.ssubtrap in
          { vty = rty; v = f b Ty.I128 x y })
  | Sqlty.Int32 | Sqlty.Int64 ->
      let x = (coerce b vx rty).v and y = (coerce b vy rty).v in
      let f =
        match op with
        | `Add -> Builder.saddtrap
        | `Sub -> Builder.ssubtrap
        | `Mul -> Builder.smultrap
      in
      { vty = rty; v = f b (ir_ty rty) x y }
  | Sqlty.Date ->
      (* date +/- days: unchecked 32-bit arithmetic *)
      let x = (coerce b vx Sqlty.Date).v
      and y = (coerce b vy Sqlty.Int32).v in
      let f = if op = `Add then Builder.add else Builder.sub in
      { vty = rty; v = f b Ty.I32 x y }
  | t -> fail "arith result type %s" (Sqlty.to_string t)

and compile_div ctx (p : pipe) (vx : value) (vy : value) (rty : Sqlty.t) : value
    =
  ignore ctx;
  let b = p.b in
  match rty with
  | Sqlty.Decimal _ ->
      let to128 (v : value) =
        match v.vty with
        | Sqlty.Decimal _ -> v
        | _ ->
            { vty = Sqlty.Decimal 0; v = Builder.sext b Ty.I128 (widen_to_i64 b v) }
      in
      let x = to128 vx and y = to128 vy in
      emit_div_zero_check b y;
      let r =
        call_rt b "umbra_i128Div" [| Ty.I128; Ty.I128 |] Ty.I128 [ x.v; y.v ]
      in
      { vty = rty; v = r }
  | Sqlty.Int32 | Sqlty.Int64 ->
      let x = coerce b vx rty and y = coerce b vy rty in
      emit_div_zero_check b y;
      { vty = rty; v = Builder.sdiv b (ir_ty rty) x.v y.v }
  | t -> fail "div result type %s" (Sqlty.to_string t)

and compile_cmp ctx (p : pipe) (vx : value) (vy : value) (pred : Expr.pred) :
    value =
  ignore ctx;
  let b = p.b in
  match (vx.vty, vy.vty) with
  | Sqlty.Str, Sqlty.Str -> (
      match pred with
      | Expr.Eq | Expr.Ne ->
          let r = rt_ptr2_i64 b "umbra_strEq" vx.v vy.v in
          let zero = Builder.const b Ty.I64 0L in
          let c = if pred = Expr.Eq then Op.Ne else Op.Eq in
          { vty = Sqlty.Bool; v = Builder.cmp b c r zero }
      | _ ->
          let r = rt_ptr2_i64 b "umbra_strCmp" vx.v vy.v in
          let zero = Builder.const b Ty.I64 0L in
          { vty = Sqlty.Bool; v = Builder.cmp b (pred_to_cmp pred) r zero })
  | _ ->
      let common =
        match (vx.vty, vy.vty) with
        | Sqlty.Date, Sqlty.Date -> Sqlty.Date
        | Sqlty.Bool, Sqlty.Bool -> Sqlty.Bool
        | Sqlty.Date, t when Sqlty.is_numeric t -> Sqlty.Date
        | t, Sqlty.Date when Sqlty.is_numeric t -> Sqlty.Date
        | a, bty -> Expr.numeric_join `Add a bty
      in
      let x = coerce b vx common and y = coerce b vy common in
      { vty = Sqlty.Bool; v = Builder.cmp b (pred_to_cmp pred) x.v y.v }

and compile_case ctx (p : pipe) env tys whens els : value =
  let b = p.b in
  (* Evaluate arms in dedicated blocks joined by a phi — generates the
     branchy code shape long TPC-DS expressions are known for. *)
  let rty = Expr.type_of tys (Expr.Case (whens, els)) in
  let join = Builder.new_block b in
  let incoming = ref [] in
  let rec arm = function
    | [] ->
        let v = compile_expr ctx p env tys els in
        let v = coerce b v rty in
        incoming := (Builder.current_block b, v.v) :: !incoming;
        Builder.br b join
    | (w, t) :: rest ->
        let c = compile_expr ctx p env tys w in
        let then_b = Builder.new_block b in
        let else_b = Builder.new_block b in
        Builder.condbr b c.v ~then_:then_b ~else_:else_b;
        Builder.switch_to b then_b;
        let v = compile_expr ctx p env tys t in
        let v = coerce b v rty in
        incoming := (Builder.current_block b, v.v) :: !incoming;
        Builder.br b join;
        Builder.switch_to b else_b;
        arm rest
  in
  arm whens;
  Builder.switch_to b join;
  let v = Builder.phi b (ir_ty rty) (List.rev !incoming) in
  { vty = rty; v }

(* ---------------- hashing ---------------- *)

let seed_a = 0xF45F_017F_FBC4_0390L
let seed_b = 0xB993_5CC9_7AB5_B272L
let golden = 0x9E37_79B9_7F4A_7C15L

(** Inline Umbra hash of a 64-bit value (Listing 2 shape). *)
let hash64 b x =
  let sa = Builder.const b Ty.I64 seed_a in
  let sb = Builder.const b Ty.I64 seed_b in
  let h1 = Builder.crc32 b sa x in
  let h2 = Builder.crc32 b sb x in
  let c32 = Builder.const b Ty.I64 32L in
  let hi = Builder.shl b Ty.I64 h2 c32 in
  let o = Builder.or_ b Ty.I64 hi h1 in
  let rot = Builder.rotr b Ty.I64 x c32 in
  Builder.xor b Ty.I64 o rot

let hash_value ctx (p : pipe) (v : value) : int =
  ignore ctx;
  let b = p.b in
  match v.vty with
  | Sqlty.Str ->
      call_rt b "umbra_strHash" [| Ty.Ptr |] Ty.I64 [ v.v ]
  | Sqlty.Decimal _ ->
      let lo = Builder.trunc b Ty.I64 v.v in
      let c64 = Builder.const b Ty.I64 64L in
      let c64_128 = Builder.sext b Ty.I128 c64 in
      let hi128 = Builder.lshr b Ty.I128 v.v c64_128 in
      let hi = Builder.trunc b Ty.I64 hi128 in
      let c1 = Builder.const b Ty.I64 1L in
      let hir = Builder.rotr b Ty.I64 hi c1 in
      let x = Builder.xor b Ty.I64 lo hir in
      hash64 b x
  | Sqlty.Int64 -> hash64 b v.v
  | Sqlty.Int32 | Sqlty.Date | Sqlty.Bool -> hash64 b (widen_to_i64 b v)

let combine_hash (p : pipe) h hv =
  let b = p.b in
  let x = Builder.xor b Ty.I64 h hv in
  let g = Builder.const b Ty.I64 golden in
  Builder.longmulfold b x g

let hash_keys ctx (p : pipe) (keys : value list) : int =
  match keys with
  | [] ->
      (* keyless (global) aggregation: every row lands in one group *)
      ignore ctx;
      Builder.const p.b Ty.I64 1L
  | [ k ] -> hash_value ctx p k
  | k :: rest ->
      List.fold_left
        (fun h k -> combine_hash p h (hash_value ctx p k))
        (hash_value ctx p k) rest

(* ---------------- tuple field access ---------------- *)

let store_field (p : pipe) ~base (fld : Layout.field) (v : value) =
  let b = p.b in
  let off = fld.Layout.f_off in
  match fld.Layout.f_ty with
  | Sqlty.Str ->
      (* copy the 16-byte SSO struct by value *)
      let w0 = Builder.load b Ty.I64 v.v ~offset:0 in
      let w1 = Builder.load b Ty.I64 v.v ~offset:8 in
      ignore (Builder.store b w0 base ~offset:off);
      ignore (Builder.store b w1 base ~offset:(off + 8))
  | _ -> ignore (Builder.store b v.v base ~offset:off)

let load_field (p : pipe) ~base (fld : Layout.field) : value =
  let b = p.b in
  let off = fld.Layout.f_off in
  match fld.Layout.f_ty with
  | Sqlty.Str -> { vty = Sqlty.Str; v = Builder.gep b base off }
  | ty -> { vty = ty; v = Builder.load b (ir_ty ty) base ~offset:off }

(* ---------------- needed-column analysis helpers ---------------- *)

let used_of_exprs exprs =
  List.fold_left (fun acc e -> Expr.used_cols e acc) [] exprs
  |> Int_set.of_list

let all_cols n = Int_set.of_list (List.init n (fun i -> i))

(* ---------------- function scaffolding ---------------- *)

(** Standard pipeline-function signature: (state, from, to). *)
let new_fn ctx name =
  Builder.create ctx.modul ~name ~ret:Ty.Void
    ~args:[| Ty.Ptr; Ty.I64; Ty.I64 |]

let push_step ctx fn_name range =
  let sinks, par_safe =
    match range with
    | `Table _ -> (List.rev ctx.cur_sinks, not ctx.cur_unsafe)
    | `Whole -> ([], false)
  in
  ctx.cur_sinks <- [];
  ctx.cur_unsafe <- false;
  ctx.steps_rev <- { fn_name; range; par_safe; sinks } :: ctx.steps_rev

let add_sink ctx s =
  if not (List.mem s ctx.cur_sinks) then ctx.cur_sinks <- s :: ctx.cur_sinks

(** Small prepare function: create a runtime object and store it in a state
    slot. [mk] receives the builder and returns the object pointer. *)
let emit_prepare ctx ~name ~slot mk =
  let b = new_fn ctx name in
  let obj = mk b in
  ignore (Builder.store b obj (Builder.arg b 0) ~offset:slot);
  Builder.ret_void b;
  push_step ctx name `Whole

(** Small cleanup function: reads an object's count into a stats slot —
    the "single-threaded cleanup work" functions of Sec. III. *)
let emit_cleanup ctx ~name ~obj_slot ~stats_slot =
  let b = new_fn ctx name in
  let state = Builder.arg b 0 in
  let obj = Builder.load b Ty.Ptr state ~offset:obj_slot in
  let cnt = call_rt b "umbra_bufCount" [| Ty.Ptr |] Ty.I64 [ obj ] in
  ignore (Builder.store b cnt state ~offset:stats_slot);
  Builder.ret_void b;
  push_step ctx name `Whole

(* ---------------- aggregate state ---------------- *)

(** What a group keeps for one aggregate: one payload field, updated once
    per row. Output aggregates share states: [SUM e] and [AVG e] keep one
    sum per distinct [e] (structural equality after paramization, so two
    holes match only when they are the same hole), and every [Count_star]
    and [AVG] share one count, since [Sqlty] has no NULL and an AVG's
    count is its group's row count. *)
type state_kind = Count | Sum | Min | Max

type agg_state = {
  s_kind : state_kind;
  s_input : Expr.t option;  (** [None] only for the count *)
  s_ty : Sqlty.t;  (** type of the state's payload field *)
}

(** How the aggscan reads one output aggregate from the states (indices
    into the state list): a state as is, or an AVG's sum divided by the
    shared count. *)
type agg_output = State of int | Avg of { sum : int; count : int }

(** The distinct states of [aggs], in order of first use, and how each
    output aggregate reads them. *)
let agg_states tys (aggs : Algebra.agg list) : agg_state list * agg_output list =
  let states = ref [] in
  let state s_kind s_input s_ty =
    let s = { s_kind; s_input; s_ty } in
    let rec find i = function
      | [] ->
          states := !states @ [ s ];
          i
      | s' :: rest -> if s' = s then i else find (i + 1) rest
    in
    find 0 !states
  in
  let count () = state Count None Sqlty.Int64 in
  let sum e =
    let ty =
      match Expr.type_of tys e with Sqlty.Decimal s -> Sqlty.Decimal s | _ -> Sqlty.Int64
    in
    state Sum (Some e) ty
  in
  let outputs =
    List.map
      (function
        | Algebra.Count_star -> State (count ())
        | Algebra.Sum e -> State (sum e)
        | Algebra.Min e -> State (state Min (Some e) (Expr.type_of tys e))
        | Algebra.Max e -> State (state Max (Some e) (Expr.type_of tys e))
        | Algebra.Avg e ->
            let sum = sum e in
            Avg { sum; count = count () })
      aggs
  in
  (!states, outputs)

(* ---------------- produce/consume ---------------- *)

let rec produce ctx (op : Algebra.t) ~(needed : Int_set.t)
    ~(consume : pipe -> value option array -> unit) : unit =
  let tys = Algebra.output_tys ctx.catalog op in
  match op with
  | Algebra.Scan { table; filter } -> produce_scan ctx ~table ~filter ~tys ~needed ~consume
  | Algebra.Filter { input; pred } ->
      let in_tys = Algebra.output_tys ctx.catalog input in
      let needed' = Int_set.union needed (used_of_exprs [ pred ]) in
      produce ctx input ~needed:needed' ~consume:(fun p env ->
          let c = compile_expr ctx p env in_tys pred in
          let ok = Builder.new_block p.b in
          let skip = Builder.new_block p.b in
          Builder.condbr p.b c.v ~then_:ok ~else_:skip;
          Builder.switch_to p.b ok;
          consume p env;
          Builder.br p.b skip;
          Builder.switch_to p.b skip)
  | Algebra.Project { input; exprs } ->
      let in_tys = Algebra.output_tys ctx.catalog input in
      let exprs = Array.of_list exprs in
      let needed_exprs =
        Int_set.fold (fun i acc -> exprs.(i) :: acc) needed []
      in
      let needed' = used_of_exprs needed_exprs in
      produce ctx input ~needed:needed' ~consume:(fun p env ->
          let out = Array.make (Array.length exprs) None in
          Int_set.iter
            (fun i -> out.(i) <- Some (compile_expr ctx p env in_tys exprs.(i)))
            needed;
          consume p out)
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      produce_join ctx ~build ~probe ~build_keys ~probe_keys ~tys ~needed
        ~consume
  | Algebra.Group_by { input; keys; aggs } ->
      produce_group_by ctx ~input ~keys ~aggs ~tys ~needed ~consume
  | Algebra.Order_by { input; keys; limit } ->
      produce_order_by ctx ~input ~keys ~limit ~tys ~needed ~consume
  | Algebra.Limit { input; n } ->
      let slot = alloc_slot ctx in
      produce ctx input ~needed ~consume:(fun p env ->
          (* the counter lives in the shared state block: lanes would race *)
          ctx.cur_unsafe <- true;
          let b = p.b in
          let state = Builder.arg b 0 in
          let cnt = Builder.load b Ty.I64 state ~offset:slot in
          let n' = Builder.const b Ty.I64 (Int64.of_int n) in
          let full = Builder.cmp b Op.Sge cnt n' in
          let stop = Builder.new_block b in
          let go = Builder.new_block b in
          Builder.condbr b full ~then_:stop ~else_:go;
          Builder.switch_to b stop;
          Builder.br b p.exit_block;
          Builder.switch_to b go;
          let one = Builder.const b Ty.I64 1L in
          let cnt' = Builder.add b Ty.I64 cnt one in
          ignore (Builder.store b cnt' state ~offset:slot);
          consume p env)

and produce_scan ctx ~table ~filter ~tys ~needed ~consume =
  let tbl = table_of ctx table in
  let schema = Table.schema tbl in
  let needed =
    match filter with
    | None -> needed
    | Some f -> Int_set.union needed (used_of_exprs [ f ])
  in
  ctx.pipes <- ctx.pipes + 1;
  let name = fresh_fn_name ctx "scan" in
  let b = new_fn ctx name in
  let exit_block = Builder.new_block b in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let incr = Builder.new_block b in
  let from = Builder.arg b 1 and to_ = Builder.arg b 2 in
  Builder.br b head;
  Builder.switch_to b head;
  let row = Builder.phi_placeholder b Ty.I64 ~max_incoming:2 in
  Builder.add_phi_incoming b row ~block:Func.entry_block ~value:from;
  let in_range = Builder.cmp b Op.Slt row to_ in
  Builder.condbr b in_range ~then_:body ~else_:exit_block;
  Builder.switch_to b body;
  let p = { b; exit_block } in
  (* load needed columns *)
  let env = Array.make (Array.length tys) None in
  Int_set.iter
    (fun col ->
      let cty = Schema.col_ty schema col in
      let stride = Schema.stride cty in
      let base = Builder.const_ptr b (Int64.of_int (Table.col_addr tbl col)) in
      let addr = Builder.gep b base ~index:row ~scale:stride 0 in
      let v =
        match tys.(col) with
        | Sqlty.Str -> { vty = Sqlty.Str; v = addr }
        | Sqlty.Decimal s ->
            (* stored as i64, widened to 128-bit in the engine *)
            let raw = Builder.load b Ty.I64 addr ~offset:0 in
            { vty = Sqlty.Decimal s; v = Builder.sext b Ty.I128 raw }
        | ty -> { vty = ty; v = Builder.load b (ir_ty ty) addr ~offset:0 }
      in
      env.(col) <- Some v)
    needed;
  (match filter with
  | None -> ()
  | Some f ->
      let c = compile_expr ctx p env tys f in
      let ok = Builder.new_block b in
      Builder.condbr b c.v ~then_:ok ~else_:incr;
      Builder.switch_to b ok);
  consume p env;
  Builder.br b incr;
  Builder.switch_to b incr;
  let one = Builder.const b Ty.I64 1L in
  let row' = Builder.add b Ty.I64 row one in
  Builder.add_phi_incoming b row ~block:incr ~value:row';
  Builder.br b head;
  Builder.switch_to b exit_block;
  Builder.ret_void b;
  push_step ctx name (`Table table)

and produce_join ctx ~build ~probe ~build_keys ~probe_keys ~tys ~needed
    ~consume =
  ignore tys;
  let build_tys = Algebra.output_tys ctx.catalog build in
  let probe_tys = Algebra.output_tys ctx.catalog probe in
  let np = Array.length probe_tys in
  (* Split the needed set into probe/build parts. *)
  let needed_probe_out =
    Int_set.filter (fun i -> i < np) needed
  in
  let needed_build_out =
    Int_set.fold (fun i acc -> if i >= np then Int_set.add (i - np) acc else acc)
      needed Int_set.empty
  in
  let key_tys = List.map (Expr.type_of build_tys) build_keys in
  (* Payload: key values, then needed build columns (sorted). *)
  let build_cols = Int_set.elements needed_build_out in
  let payload_layout =
    Layout.of_tys (key_tys @ List.map (fun c -> build_tys.(c)) build_cols)
  in
  let nk = List.length build_keys in
  let ht_slot = alloc_slot ctx in
  emit_prepare ctx
    ~name:(fresh_fn_name ctx "join_prepare")
    ~slot:ht_slot
    (fun b ->
      let sz = Builder.const b Ty.I64 (Int64.of_int (Layout.size payload_layout)) in
      let hint = Builder.const b Ty.I64 1024L in
      call_rt b "umbra_htCreate" [| Ty.I64; Ty.I64 |] Ty.Ptr [ sz; hint ]);
  (* Build pipeline. *)
  let build_needed = Int_set.union needed_build_out (used_of_exprs build_keys) in
  produce ctx build ~needed:build_needed ~consume:(fun p env ->
      add_sink ctx
        (Sink_ht
           {
             ht_slot;
             ht_payload = Layout.size payload_layout;
             ht_merge = None;
           });
      let b = p.b in
      let keys =
        List.map (fun k -> compile_expr ctx p env build_tys k) build_keys
      in
      let h = hash_keys ctx p keys in
      let state = Builder.arg b 0 in
      let ht = Builder.load b Ty.Ptr state ~offset:ht_slot in
      let payload =
        call_rt b "umbra_htInsert" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ ht; h ]
      in
      List.iteri
        (fun i k -> store_field p ~base:payload (Layout.field payload_layout i) k)
        keys;
      List.iteri
        (fun i col ->
          match env.(col) with
          | Some v ->
              store_field p ~base:payload (Layout.field payload_layout (nk + i)) v
          | None -> fail "build column %d missing" col)
        build_cols);
  (* Probe side: continue the enclosing pipeline. *)
  let probe_needed =
    Int_set.union needed_probe_out (used_of_exprs probe_keys)
  in
  produce ctx probe ~needed:probe_needed ~consume:(fun p env ->
      let b = p.b in
      let keys =
        List.map (fun k -> compile_expr ctx p env probe_tys k) probe_keys
      in
      (* coerce probe keys to build key types so hashes agree *)
      let keys = List.map2 (fun k ty -> coerce b k ty) keys key_tys in
      let h = hash_keys ctx p keys in
      let state = Builder.arg b 0 in
      let ht = Builder.load b Ty.Ptr state ~offset:ht_slot in
      let entry0 =
        call_rt b "umbra_htLookup" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ ht; h ]
      in
      let from_block = Builder.current_block b in
      let head = Builder.new_block b in
      let check = Builder.new_block b in
      let matched = Builder.new_block b in
      let next = Builder.new_block b in
      let done_ = Builder.new_block b in
      Builder.br b head;
      Builder.switch_to b head;
      let entry = Builder.phi_placeholder b Ty.Ptr ~max_incoming:2 in
      Builder.add_phi_incoming b entry ~block:from_block ~value:entry0;
      let is_null = Builder.isnull b entry in
      Builder.condbr b is_null ~then_:done_ ~else_:check;
      (* verify keys *)
      Builder.switch_to b check;
      let payload = Builder.gep b entry 8 in
      List.iteri
        (fun i k ->
          let stored = load_field p ~base:payload (Layout.field payload_layout i) in
          let eq = compile_cmp ctx p stored k Expr.Eq in
          let next_check = Builder.new_block b in
          Builder.condbr b eq.v ~then_:next_check ~else_:next;
          Builder.switch_to b next_check)
        keys;
      Builder.br b matched;
      Builder.switch_to b matched;
      (* combined tuple: probe columns ++ build columns *)
      let out = Array.make (np + Array.length build_tys) None in
      Int_set.iter (fun i -> out.(i) <- env.(i)) needed_probe_out;
      List.iteri
        (fun i col ->
          out.(np + col) <-
            Some (load_field p ~base:payload (Layout.field payload_layout (nk + i))))
        build_cols;
      consume p out;
      Builder.br b next;
      Builder.switch_to b next;
      let entry' =
        call_rt b "umbra_htNext" [| Ty.Ptr; Ty.Ptr; Ty.I64 |] Ty.Ptr
          [ ht; entry; h ]
      in
      Builder.add_phi_incoming b entry ~block:next ~value:entry';
      Builder.br b head;
      Builder.switch_to b done_)

and produce_group_by ctx ~input ~keys ~aggs ~tys ~needed ~consume =
  ignore needed;
  let in_tys = Algebra.output_tys ctx.catalog input in
  let key_tys = List.map (Expr.type_of in_tys) keys in
  let states, outputs = agg_states in_tys aggs in
  let payload_layout =
    Layout.of_tys (key_tys @ List.map (fun s -> s.s_ty) states)
  in
  let nk = List.length keys in
  (* state [i] is the payload field after the keys *)
  let state_field i = Layout.field payload_layout (nk + i) in
  let ht_slot = alloc_slot ctx in
  emit_prepare ctx
    ~name:(fresh_fn_name ctx "agg_prepare")
    ~slot:ht_slot
    (fun b ->
      let sz = Builder.const b Ty.I64 (Int64.of_int (Layout.size payload_layout)) in
      let hint = Builder.const b Ty.I64 256L in
      call_rt b "umbra_htCreate" [| Ty.I64; Ty.I64 |] Ty.Ptr [ sz; hint ]);
  let input_needed =
    used_of_exprs (keys @ List.filter_map (fun s -> s.s_input) states)
  in
  let merge_name = fresh_fn_name ctx "aggmerge" in
  produce ctx input ~needed:input_needed ~consume:(fun p env ->
      add_sink ctx
        (Sink_ht
           {
             ht_slot;
             ht_payload = Layout.size payload_layout;
             ht_merge = Some merge_name;
           });
      let b = p.b in
      let kvs = List.map (fun k -> compile_expr ctx p env in_tys k) keys in
      let avs =
        List.map
          (fun s -> Option.map (compile_expr ctx p env in_tys) s.s_input)
          states
      in
      let h = hash_keys ctx p kvs in
      let state = Builder.arg b 0 in
      let ht = Builder.load b Ty.Ptr state ~offset:ht_slot in
      let entry0 =
        call_rt b "umbra_htLookup" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ ht; h ]
      in
      let from_block = Builder.current_block b in
      let head = Builder.new_block b in
      let check = Builder.new_block b in
      let upd = Builder.new_block b in
      let nxt = Builder.new_block b in
      let ins = Builder.new_block b in
      let done_ = Builder.new_block b in
      Builder.br b head;
      Builder.switch_to b head;
      let entry = Builder.phi_placeholder b Ty.Ptr ~max_incoming:2 in
      Builder.add_phi_incoming b entry ~block:from_block ~value:entry0;
      let is_null = Builder.isnull b entry in
      Builder.condbr b is_null ~then_:ins ~else_:check;
      Builder.switch_to b check;
      let payload = Builder.gep b entry 8 in
      List.iteri
        (fun i k ->
          let stored = load_field p ~base:payload (Layout.field payload_layout i) in
          let eq = compile_cmp ctx p stored k Expr.Eq in
          let next_check = Builder.new_block b in
          Builder.condbr b eq.v ~then_:next_check ~else_:nxt;
          Builder.switch_to b next_check)
        kvs;
      Builder.br b upd;
      (* update existing group *)
      Builder.switch_to b upd;
      List.iteri
        (fun i s ->
          let cur = load_field p ~base:payload (state_field i) in
          store_field p ~base:payload (state_field i)
            (combine b s cur (row_value b s (List.nth avs i))))
        states;
      Builder.br b done_;
      (* probe next duplicate hash *)
      Builder.switch_to b nxt;
      let entry' =
        call_rt b "umbra_htNext" [| Ty.Ptr; Ty.Ptr; Ty.I64 |] Ty.Ptr
          [ ht; entry; h ]
      in
      Builder.add_phi_incoming b entry ~block:nxt ~value:entry';
      Builder.br b head;
      (* insert fresh group *)
      Builder.switch_to b ins;
      let payload_new =
        call_rt b "umbra_htInsert" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ ht; h ]
      in
      List.iteri
        (fun i k ->
          store_field p ~base:payload_new (Layout.field payload_layout i) k)
        kvs;
      List.iteri
        (fun i s ->
          store_field p ~base:payload_new (state_field i)
            (row_value b s (List.nth avs i)))
        states;
      Builder.br b done_;
      Builder.switch_to b done_);
  emit_agg_merge ctx ~name:merge_name ~ht_slot ~payload_layout ~nk ~states;
  (* Scan the hash table: a fresh pipeline. *)
  ctx.pipes <- ctx.pipes + 1;
  let name = fresh_fn_name ctx "aggscan" in
  let b = new_fn ctx name in
  let exit_block = Builder.new_block b in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let live = Builder.new_block b in
  let incr = Builder.new_block b in
  let state = Builder.arg b 0 in
  let ht = Builder.load b Ty.Ptr state ~offset:ht_slot in
  let cap = Builder.load b Ty.I64 ht ~offset:0 in
  let esz = Builder.load b Ty.I64 ht ~offset:16 in
  let entries = Builder.load b Ty.Ptr ht ~offset:24 in
  let zero = Builder.const b Ty.I64 0L in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b Ty.I64 ~max_incoming:2 in
  Builder.add_phi_incoming b i ~block:Func.entry_block ~value:zero;
  let in_range = Builder.cmp b Op.Slt i cap in
  Builder.condbr b in_range ~then_:body ~else_:exit_block;
  Builder.switch_to b body;
  let off = Builder.mul b Ty.I64 i esz in
  let entry = Builder.gep b entries ~index:off ~scale:1 0 in
  let hword = Builder.load b Ty.I64 entry ~offset:0 in
  let occupied = Builder.cmp b Op.Ne hword zero in
  Builder.condbr b occupied ~then_:live ~else_:incr;
  Builder.switch_to b live;
  let p = { b; exit_block } in
  let payload = Builder.gep b entry 8 in
  let out = Array.make (Array.length tys) None in
  List.iteri
    (fun k _ ->
      out.(k) <- Some (load_field p ~base:payload (Layout.field payload_layout k)))
    key_tys;
  let read i = load_field p ~base:payload (state_field i) in
  List.iteri
    (fun k o ->
      out.(nk + k) <-
        Some
          (match o with
          | State i -> read i
          | Avg { sum; count } -> (
              let sum = read sum and cnt = read count in
              match sum.vty with
              | Sqlty.Decimal _ ->
                  let cnt128 = Builder.sext b Ty.I128 cnt.v in
                  let r =
                    call_rt b "umbra_i128Div" [| Ty.I128; Ty.I128 |] Ty.I128
                      [ sum.v; cnt128 ]
                  in
                  { vty = sum.vty; v = r }
              | _ ->
                  (* integer average truncates; count is never zero here *)
                  { vty = sum.vty; v = Builder.sdiv b Ty.I64 sum.v cnt.v })))
    outputs;
  consume p out;
  Builder.br b incr;
  Builder.switch_to b incr;
  let one = Builder.const b Ty.I64 1L in
  let i' = Builder.add b Ty.I64 i one in
  Builder.add_phi_incoming b i ~block:incr ~value:i';
  Builder.br b head;
  Builder.switch_to b exit_block;
  Builder.ret_void b;
  push_step ctx name `Whole

(* A row's contribution to state [s]: one for the count, else the row's
   input coerced to the state's type. *)
and row_value b (s : agg_state) v =
  match (s.s_kind, v) with
  | Count, _ -> { vty = Sqlty.Int64; v = Builder.const b Ty.I64 1L }
  | _, Some v -> coerce b v s.s_ty
  | _, None -> fail "aggregate without input"

(* State [s]'s value [cur] with [inc] folded in: a row's contribution when
   a group is updated, another lane's partial state when tables merge. *)
and combine b (s : agg_state) (cur : value) (inc : value) =
  let v =
    match s.s_kind with
    | Count -> Builder.add b Ty.I64 cur.v inc.v
    | Sum -> Builder.saddtrap b (ir_ty cur.vty) cur.v inc.v
    | Min | Max ->
        let pred = if s.s_kind = Min then Op.Slt else Op.Sgt in
        let better = Builder.cmp b pred inc.v cur.v in
        Builder.select b (ir_ty cur.vty) better inc.v cur.v
  in
  { vty = cur.vty; v }

(** Generated barrier function [(state, src_ht, _)]: fold a lane-local
    aggregate table into the global one at [ht_slot]. Stored hashes are
    already normalized, so they are reused verbatim for the global lookup;
    on a key miss the partial payload is copied as the initial group state. *)
and emit_agg_merge ctx ~name ~ht_slot ~payload_layout ~nk ~states =
  let nfields = nk + List.length states in
  let b =
    Builder.create ctx.modul ~name ~ret:Ty.Void
      ~args:[| Ty.Ptr; Ty.Ptr; Ty.I64 |]
  in
  let state = Builder.arg b 0 in
  let src = Builder.arg b 1 in
  let exit_block = Builder.new_block b in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let live = Builder.new_block b in
  let incr = Builder.new_block b in
  let gl = Builder.load b Ty.Ptr state ~offset:ht_slot in
  let cap = Builder.load b Ty.I64 src ~offset:0 in
  let esz = Builder.load b Ty.I64 src ~offset:16 in
  let entries = Builder.load b Ty.Ptr src ~offset:24 in
  let zero = Builder.const b Ty.I64 0L in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b Ty.I64 ~max_incoming:2 in
  Builder.add_phi_incoming b i ~block:Func.entry_block ~value:zero;
  let in_range = Builder.cmp b Op.Slt i cap in
  Builder.condbr b in_range ~then_:body ~else_:exit_block;
  Builder.switch_to b body;
  let off = Builder.mul b Ty.I64 i esz in
  let entry = Builder.gep b entries ~index:off ~scale:1 0 in
  let hword = Builder.load b Ty.I64 entry ~offset:0 in
  let occupied = Builder.cmp b Op.Ne hword zero in
  Builder.condbr b occupied ~then_:live ~else_:incr;
  Builder.switch_to b live;
  let p = { b; exit_block } in
  let spay = Builder.gep b entry 8 in
  let kvs =
    List.init nk (fun k -> load_field p ~base:spay (Layout.field payload_layout k))
  in
  let entry0 =
    call_rt b "umbra_htLookup" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ gl; hword ]
  in
  let from_block = Builder.current_block b in
  let chead = Builder.new_block b in
  let check = Builder.new_block b in
  let upd = Builder.new_block b in
  let nxt = Builder.new_block b in
  let ins = Builder.new_block b in
  let done_ = Builder.new_block b in
  Builder.br b chead;
  Builder.switch_to b chead;
  let ge = Builder.phi_placeholder b Ty.Ptr ~max_incoming:2 in
  Builder.add_phi_incoming b ge ~block:from_block ~value:entry0;
  let is_null = Builder.isnull b ge in
  Builder.condbr b is_null ~then_:ins ~else_:check;
  Builder.switch_to b check;
  let gpay = Builder.gep b ge 8 in
  List.iteri
    (fun k kv ->
      let stored = load_field p ~base:gpay (Layout.field payload_layout k) in
      let eq = compile_cmp ctx p stored kv Expr.Eq in
      let next_check = Builder.new_block b in
      Builder.condbr b eq.v ~then_:next_check ~else_:nxt;
      Builder.switch_to b next_check)
    kvs;
  Builder.br b upd;
  Builder.switch_to b upd;
  List.iteri
    (fun i s ->
      let fld = Layout.field payload_layout (nk + i) in
      let cur = load_field p ~base:gpay fld in
      let inc = load_field p ~base:spay fld in
      store_field p ~base:gpay fld (combine b s cur inc))
    states;
  Builder.br b done_;
  Builder.switch_to b nxt;
  let ge' =
    call_rt b "umbra_htNext" [| Ty.Ptr; Ty.Ptr; Ty.I64 |] Ty.Ptr
      [ gl; ge; hword ]
  in
  Builder.add_phi_incoming b ge ~block:nxt ~value:ge';
  Builder.br b chead;
  Builder.switch_to b ins;
  let pnew =
    call_rt b "umbra_htInsert" [| Ty.Ptr; Ty.I64 |] Ty.Ptr [ gl; hword ]
  in
  for k = 0 to nfields - 1 do
    let v = load_field p ~base:spay (Layout.field payload_layout k) in
    store_field p ~base:pnew (Layout.field payload_layout k) v
  done;
  Builder.br b done_;
  Builder.switch_to b done_;
  Builder.br b incr;
  Builder.switch_to b incr;
  let one = Builder.const b Ty.I64 1L in
  let i' = Builder.add b Ty.I64 i one in
  Builder.add_phi_incoming b i ~block:incr ~value:i';
  Builder.br b head;
  Builder.switch_to b exit_block;
  Builder.ret_void b

and produce_order_by ctx ~input ~keys ~limit ~tys ~needed ~consume =
  let in_tys = Algebra.output_tys ctx.catalog input in
  ignore tys;
  let key_exprs = List.map fst keys in
  let key_tys = List.map (Expr.type_of in_tys) key_exprs in
  let carried = Int_set.elements needed in
  let row_layout =
    Layout.of_tys (key_tys @ List.map (fun c -> in_tys.(c)) carried)
  in
  let nk = List.length keys in
  let buf_slot = alloc_slot ctx in
  let cmp_slot = alloc_slot ctx in
  let stats_slot = alloc_slot ctx in
  emit_prepare ctx
    ~name:(fresh_fn_name ctx "sort_prepare")
    ~slot:buf_slot
    (fun b ->
      let sz = Builder.const b Ty.I64 (Int64.of_int (Layout.size row_layout)) in
      call_rt b "umbra_bufCreate" [| Ty.I64 |] Ty.Ptr [ sz ]);
  (* input pipeline: materialize rows *)
  let input_needed = Int_set.union needed (used_of_exprs key_exprs) in
  produce ctx input ~needed:input_needed ~consume:(fun p env ->
      add_sink ctx
        (Sink_buf { buf_slot; buf_row = Layout.size row_layout });
      let b = p.b in
      let state = Builder.arg b 0 in
      let buf = Builder.load b Ty.Ptr state ~offset:buf_slot in
      let row = call_rt b "umbra_bufAppend" [| Ty.Ptr |] Ty.Ptr [ buf ] in
      List.iteri
        (fun i k ->
          let v = compile_expr ctx p env in_tys k in
          store_field p ~base:row (Layout.field row_layout i) v)
        key_exprs;
      List.iteri
        (fun i col ->
          match env.(col) with
          | Some v -> store_field p ~base:row (Layout.field row_layout (nk + i)) v
          | None -> fail "order-by column %d missing" col)
        carried);
  emit_cleanup ctx
    ~name:(fresh_fn_name ctx "stats")
    ~obj_slot:buf_slot ~stats_slot;
  (* comparator function *)
  let cmp_name = fresh_fn_name ctx "cmp" in
  let cb =
    Builder.create ctx.modul ~name:cmp_name ~ret:Ty.I64 ~args:[| Ty.Ptr; Ty.Ptr |]
  in
  let ca = Builder.arg cb 0 and cb2 = Builder.arg cb 1 in
  let cexit = Builder.new_block cb in
  let cp = { b = cb; exit_block = cexit } in
  List.iteri
    (fun i (_, dir) ->
      let fld = Layout.field row_layout i in
      let va = load_field cp ~base:ca fld in
      let vb = load_field cp ~base:cb2 fld in
      let lo, hi = match dir with Algebra.Asc -> (va, vb) | Algebra.Desc -> (vb, va) in
      let lt = compile_cmp ctx cp lo hi Expr.Lt in
      let gt = compile_cmp ctx cp lo hi Expr.Gt in
      let ret_lt = Builder.new_block cb in
      let not_lt = Builder.new_block cb in
      let ret_gt = Builder.new_block cb in
      let nxt = Builder.new_block cb in
      Builder.condbr cb lt.v ~then_:ret_lt ~else_:not_lt;
      Builder.switch_to cb ret_lt;
      Builder.ret cb (Builder.const cb Ty.I64 (-1L));
      Builder.switch_to cb not_lt;
      Builder.condbr cb gt.v ~then_:ret_gt ~else_:nxt;
      Builder.switch_to cb ret_gt;
      Builder.ret cb (Builder.const cb Ty.I64 1L);
      Builder.switch_to cb nxt)
    keys;
  Builder.ret cb (Builder.const cb Ty.I64 0L);
  Builder.switch_to cb cexit;
  Builder.ret cb (Builder.const cb Ty.I64 0L);
  ctx.fixups <- (cmp_slot, cmp_name) :: ctx.fixups;
  (* sort step *)
  let sort_name = fresh_fn_name ctx "sort" in
  let sb = new_fn ctx sort_name in
  let state = Builder.arg sb 0 in
  let buf = Builder.load sb Ty.Ptr state ~offset:buf_slot in
  let cmp_fn = Builder.load sb Ty.Ptr state ~offset:cmp_slot in
  ignore (call_rt sb "umbra_sort" [| Ty.Ptr; Ty.Ptr |] Ty.Void [ buf; cmp_fn ]);
  Builder.ret_void sb;
  push_step ctx sort_name `Whole;
  (* scan the sorted buffer *)
  ctx.pipes <- ctx.pipes + 1;
  let name = fresh_fn_name ctx "sortscan" in
  let b = new_fn ctx name in
  let exit_block = Builder.new_block b in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let incr = Builder.new_block b in
  let state = Builder.arg b 0 in
  let buf = Builder.load b Ty.Ptr state ~offset:buf_slot in
  let cnt = Builder.load b Ty.I64 buf ~offset:0 in
  let bound =
    match limit with
    | None -> cnt
    | Some n ->
        let n' = Builder.const b Ty.I64 (Int64.of_int n) in
        let more = Builder.cmp b Op.Slt n' cnt in
        Builder.select b Ty.I64 more n' cnt
  in
  let data = Builder.load b Ty.Ptr buf ~offset:24 in
  let zero = Builder.const b Ty.I64 0L in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b Ty.I64 ~max_incoming:2 in
  Builder.add_phi_incoming b i ~block:Func.entry_block ~value:zero;
  let in_range = Builder.cmp b Op.Slt i bound in
  Builder.condbr b in_range ~then_:body ~else_:exit_block;
  Builder.switch_to b body;
  let p = { b; exit_block } in
  let row = Builder.gep b data ~index:i ~scale:(Layout.size row_layout) 0 in
  let out = Array.make (Array.length in_tys) None in
  List.iteri
    (fun k col ->
      out.(col) <- Some (load_field p ~base:row (Layout.field row_layout (nk + k))))
    carried;
  consume p out;
  Builder.br b incr;
  Builder.switch_to b incr;
  let one = Builder.const b Ty.I64 1L in
  let i' = Builder.add b Ty.I64 i one in
  Builder.add_phi_incoming b i ~block:incr ~value:i';
  Builder.br b head;
  Builder.switch_to b exit_block;
  Builder.ret_void b;
  push_step ctx name `Whole

(* ---------------- top level ---------------- *)

let compile_query ~mem ~catalog ~tables ~name (plan : Algebra.t) : compiled =
  let ctx =
    {
      modul = Func.create_module name;
      mem;
      catalog;
      tables;
      qname = name;
      str_consts = Hashtbl.create 8;
      next_slot = 0;
      steps_rev = [];
      fixups = [];
      pipes = 0;
      fn_counter = 0;
      cur_sinks = [];
      cur_unsafe = false;
    }
  in
  ctx.modul.Func.param_sig <- Array.map ir_ty (Paramize.param_tys plan);
  let out_tys = Algebra.output_tys catalog plan in
  let out_layout = Layout.of_tys (Array.to_list out_tys) in
  let output_slot = alloc_slot ctx in
  emit_prepare ctx ~name:(name ^ "_out_prepare") ~slot:output_slot (fun b ->
      let sz = Builder.const b Ty.I64 (Int64.of_int (Layout.size out_layout)) in
      call_rt b "umbra_bufCreate" [| Ty.I64 |] Ty.Ptr [ sz ]);
  let n_out = Array.length out_tys in
  produce ctx plan ~needed:(all_cols n_out) ~consume:(fun p env ->
      add_sink ctx
        (Sink_buf { buf_slot = output_slot; buf_row = Layout.size out_layout });
      let b = p.b in
      let state = Builder.arg b 0 in
      let buf = Builder.load b Ty.Ptr state ~offset:output_slot in
      let row = call_rt b "umbra_bufAppend" [| Ty.Ptr |] Ty.Ptr [ buf ] in
      Array.iteri
        (fun i vo ->
          match vo with
          | Some v -> store_field p ~base:row (Layout.field out_layout i) v
          | None -> fail "output column %d missing" i)
        env);
  (* final cleanup step *)
  let stats_slot = alloc_slot ctx in
  emit_cleanup ctx ~name:(name ^ "_out_stats") ~obj_slot:output_slot ~stats_slot;
  {
    modul = ctx.modul;
    steps = List.rev ctx.steps_rev;
    state_size = max 8 ctx.next_slot;
    fn_ptr_fixups = ctx.fixups;
    output_slot;
    output_tys = out_tys;
    num_pipelines = ctx.pipes;
    const_strs =
      List.sort compare
        (Hashtbl.fold (fun s addr acc -> (s, addr) :: acc) ctx.str_consts []);
  }

(** Layout of output rows (for host-side result reading). *)
let output_layout (c : compiled) = Layout.of_tys (Array.to_list c.output_tys)
