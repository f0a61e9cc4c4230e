(** Convenience layer for generating Umbra IR.

    A builder owns one function under construction and tracks the current
    insertion block. All [emit_*] helpers append to the current block and
    return the new value id. *)

open Qcomp_support

type t = {
  func : Func.t;
  modul : Func.modul;
  mutable cur : int;  (** current block id *)
}

(** Create a function (registered in [modul]) together with its entry block;
    argument values are ids [0 .. Array.length args - 1]. *)
let create modul ~name ~ret ~args =
  let func = Func.create ~name ~ret ~args in
  Array.iter
    (fun aty -> ignore (Func.add_inst func ~op:Op.Arg ~ty:aty ()))
    args;
  Func.add_func modul func;
  let b = { func; modul; cur = -1 } in
  let entry = Func.new_block func in
  b.cur <- entry;
  b

let func b = b.func
let arg b i =
  if i < 0 || i >= Func.n_args b.func then invalid_arg "Builder.arg";
  i

let new_block b = Func.new_block b.func
let switch_to b bid = b.cur <- bid
let current_block b = b.cur

let emit b ~op ~ty ?x ?y ?z ?n ?imm () =
  let i = Func.add_inst b.func ~op ~ty ?x ?y ?z ?n ?imm () in
  Func.append_to_block b.func b.cur i;
  i

let const b ty v = emit b ~op:Op.Const ~ty ~imm:v ()
let const_i64 b v = const b Ty.I64 v
let const_ptr b v = const b Ty.Ptr v

(* link-time hole for entry [idx] of the query's parameter vector; I128
   holes carry only the low word — the high lane is lo asr 63 at bind *)
let param b ty idx = emit b ~op:Op.Param ~ty ~imm:(Int64.of_int idx) ()

let const128 b (v : I128.t) =
  let hi_idx = Func.wide_push b.func (I128.shift_right_logical v 64 |> I128.to_int64) in
  emit b ~op:Op.Const128 ~ty:Ty.I128 ~x:hi_idx ~imm:(I128.to_int64 v) ()

let binop b op ty x y = emit b ~op ~ty ~x ~y ()
let add b ty x y = binop b Op.Add ty x y
let sub b ty x y = binop b Op.Sub ty x y
let mul b ty x y = binop b Op.Mul ty x y
let sdiv b ty x y = binop b Op.Sdiv ty x y
let srem b ty x y = binop b Op.Srem ty x y
let saddtrap b ty x y = binop b Op.Saddtrap ty x y
let ssubtrap b ty x y = binop b Op.Ssubtrap ty x y
let smultrap b ty x y = binop b Op.Smultrap ty x y
let and_ b ty x y = binop b Op.And ty x y
let or_ b ty x y = binop b Op.Or ty x y
let xor b ty x y = binop b Op.Xor ty x y
let shl b ty x y = binop b Op.Shl ty x y
let lshr b ty x y = binop b Op.Lshr ty x y
let ashr b ty x y = binop b Op.Ashr ty x y
let rotr b ty x y = binop b Op.Rotr ty x y

let cmp b pred x y =
  emit b ~op:Op.Cmp ~ty:Ty.I1 ~x ~y ~n:(Op.cmp_to_int pred) ()

let fcmp b pred x y =
  emit b ~op:Op.Fcmp ~ty:Ty.I1 ~x ~y ~n:(Op.cmp_to_int pred) ()

let isnull b x = emit b ~op:Op.Isnull ~ty:Ty.I1 ~x ()
let isnotnull b x = emit b ~op:Op.Isnotnull ~ty:Ty.I1 ~x ()
let zext b ty x = emit b ~op:Op.Zext ~ty ~x ()
let sext b ty x = emit b ~op:Op.Sext ~ty ~x ()
let trunc b ty x = emit b ~op:Op.Trunc ~ty ~x ()
let select b ty cond x y = emit b ~op:Op.Select ~ty ~x:cond ~y:x ~z:y ()
let load b ty ptr ~offset = emit b ~op:Op.Load ~ty ~x:ptr ~imm:(Int64.of_int offset) ()

let store b value ptr ~offset =
  emit b ~op:Op.Store ~ty:Ty.Void ~x:value ~y:ptr ~imm:(Int64.of_int offset) ()

(** [gep b base ?index ~scale offset] computes
    [base + offset + index * scale]. *)
let gep b base ?(index = -1) ?(scale = 1) offset =
  emit b ~op:Op.Gep ~ty:Ty.Ptr ~x:base ~y:index ~n:scale
    ~imm:(Int64.of_int offset) ()

let crc32 b acc v = emit b ~op:Op.Crc32 ~ty:Ty.I64 ~x:acc ~y:v ()
let longmulfold b x y = emit b ~op:Op.Longmulfold ~ty:Ty.I64 ~x ~y ()
let atomicadd b ty ptr v = emit b ~op:Op.Atomicadd ~ty ~x:ptr ~y:v ()

(** Declare-or-find an external runtime function and call it. *)
let call b ~name ~args_ty ~ret args =
  let sym = Func.extern_id b.modul ~name ~args:args_ty ~ret in
  let off =
    match args with
    | [] -> 0
    | first :: rest ->
        let off = Func.extra_push b.func first in
        List.iter (fun a -> ignore (Func.extra_push b.func a)) rest;
        off
  in
  emit b ~op:Op.Call ~ty:ret ~x:off ~n:(List.length args) ~z:sym ()

(** A phi with incoming edges supplied up front. *)
let phi b ty incoming =
  let off =
    match incoming with
    | [] -> invalid_arg "Builder.phi: no incoming"
    | (blk, v) :: rest ->
        let off = Func.extra_push b.func blk in
        ignore (Func.extra_push b.func v);
        List.iter
          (fun (blk, v) ->
            ignore (Func.extra_push b.func blk);
            ignore (Func.extra_push b.func v))
          rest;
        off
  in
  emit b ~op:Op.Phi ~ty ~x:off ~n:(List.length incoming) ()

(** An empty phi to be filled with {!add_phi_incoming} once predecessors are
    known (loop headers). Reserves room for [max_incoming] edges. *)
let phi_placeholder b ty ~max_incoming =
  let off = Func.extra_push b.func (-1) in
  for _ = 2 to 2 * max_incoming do
    ignore (Func.extra_push b.func (-1))
  done;
  emit b ~op:Op.Phi ~ty ~x:off ~n:0 ()

let add_phi_incoming b phi ~block ~value =
  let f = b.func in
  assert (Func.op f phi = Op.Phi);
  let k = Func.n f phi in
  Func.extra_set f (Func.x f phi + (2 * k)) block;
  Func.extra_set f (Func.x f phi + (2 * k) + 1) value;
  Func.set_n f phi (k + 1)

let br b target = ignore (emit b ~op:Op.Br ~ty:Ty.Void ~x:target ())

let condbr b cond ~then_ ~else_ =
  ignore (emit b ~op:Op.Condbr ~ty:Ty.Void ~x:cond ~y:then_ ~z:else_ ())

let ret b v = ignore (emit b ~op:Op.Ret ~ty:Ty.Void ~x:v ())
let ret_void b = ignore (emit b ~op:Op.Ret ~ty:Ty.Void ~x:(-1) ())
let unreachable b = ignore (emit b ~op:Op.Unreachable ~ty:Ty.Void ())
