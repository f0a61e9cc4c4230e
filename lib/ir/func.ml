(** Umbra IR functions and modules.

    Instructions live in parallel growable arrays (struct-of-arrays), are
    identified by their index, and are generated append-only — the layout the
    paper credits for Umbra IR's fast generation and linear traversal. Every
    instruction has a [scratch] slot that back-ends may use to attach linear
    ids without hash tables (as DirectEmit does).

    Operand conventions by opcode are documented in {!Op}. Blocks own a
    sequence of instruction ids; the last one must be a terminator. Function
    arguments are the first [n_args] instructions (opcode [Arg]) and belong
    to no block. *)

open Qcomp_support

type block = {
  bid : int;
  insts : int Vec.t;
}

type t = {
  name : string;
  ret : Ty.t;
  arg_tys : Ty.t array;
  mutable ops : Op.t array;
  mutable tys : Ty.t array;
  mutable xs : int array;
  mutable ys : int array;
  mutable zs : int array;
  mutable ns : int array;
  mutable imms : int64 array;
  mutable scratch : int array;
  mutable n_insts : int;
  extra : int Vec.t;  (** operand pool for phis and calls *)
  wide : int64 Vec.t;  (** high halves of 128-bit constants *)
  blocks : block Vec.t;
}

type extern_fn = {
  ext_name : string;
  ext_args : Ty.t array;
  ext_ret : Ty.t;
}

type modul = {
  mod_name : string;
  funcs : t Vec.t;
  externs : extern_fn Vec.t;
  extern_index : (string, int) Hashtbl.t;
  mutable param_sig : Ty.t array;
      (** declared parameter-hole signature, indexed by hole slot. Set by
          codegen from the plan's [Param] nodes; authoritative even when a
          hole sits in dead code the generator eliminated, so an artifact's
          parameter descriptor always matches the normalizer's vector. *)
}

let dummy_block = { bid = -1; insts = Vec.create ~dummy:(-1) () }

let initial_capacity = 32

let create ~name ~ret ~args =
  let f =
    {
      name;
      ret;
      arg_tys = args;
      ops = Array.make initial_capacity Op.Nop;
      tys = Array.make initial_capacity Ty.Void;
      xs = Array.make initial_capacity (-1);
      ys = Array.make initial_capacity (-1);
      zs = Array.make initial_capacity (-1);
      ns = Array.make initial_capacity 0;
      imms = Array.make initial_capacity 0L;
      scratch = Array.make initial_capacity 0;
      n_insts = 0;
      extra = Vec.create ~dummy:(-1) ();
      wide = Vec.create ~dummy:0L ();
      blocks = Vec.create ~dummy:dummy_block ();
    }
  in
  f

let n_args f = Array.length f.arg_tys
let num_insts f = f.n_insts
let num_blocks f = Vec.length f.blocks

let grow f =
  let cap = Array.length f.ops in
  let cap' = 2 * cap in
  let g dflt a =
    let a' = Array.make cap' dflt in
    Array.blit a 0 a' 0 cap;
    a'
  in
  f.ops <- g Op.Nop f.ops;
  f.tys <- g Ty.Void f.tys;
  f.xs <- g (-1) f.xs;
  f.ys <- g (-1) f.ys;
  f.zs <- g (-1) f.zs;
  f.ns <- g 0 f.ns;
  f.imms <- g 0L f.imms;
  f.scratch <- g 0 f.scratch

let add_inst f ~op ~ty ?(x = -1) ?(y = -1) ?(z = -1) ?(n = 0) ?(imm = 0L) () =
  if f.n_insts = Array.length f.ops then grow f;
  let i = f.n_insts in
  f.ops.(i) <- op;
  f.tys.(i) <- ty;
  f.xs.(i) <- x;
  f.ys.(i) <- y;
  f.zs.(i) <- z;
  f.ns.(i) <- n;
  f.imms.(i) <- imm;
  f.scratch.(i) <- 0;
  f.n_insts <- i + 1;
  i

let op f i = f.ops.(i)
let ty f i = f.tys.(i)
let x f i = f.xs.(i)
let y f i = f.ys.(i)
let z f i = f.zs.(i)
let n f i = f.ns.(i)
let imm f i = f.imms.(i)
let set_scratch f i v = f.scratch.(i) <- v
let set_x f i v = f.xs.(i) <- v
let set_y f i v = f.ys.(i) <- v
let set_n f i v = f.ns.(i) <- v

let extra_push f v = Vec.push f.extra v
let extra_get f i = Vec.get f.extra i
let extra_set f i v = Vec.set f.extra i v

(** Store the high half of a 128-bit constant; returns its index (placed in
    the instruction's [x] field by the builder). *)
let wide_push f v = Vec.push f.wide v

(** [const128_value f i] is the (hi, lo) pair of a [Const128]. *)
let const128_value f i =
  assert (f.ops.(i) = Op.Const128);
  (Vec.get f.wide f.xs.(i), f.imms.(i))

let new_block f =
  let bid = Vec.length f.blocks in
  ignore (Vec.push f.blocks { bid; insts = Vec.create ~dummy:(-1) () });
  bid

let block f bid = Vec.get f.blocks bid
let block_insts f bid = (block f bid).insts
let append_to_block f bid iid = ignore (Vec.push (block f bid).insts iid)

let entry_block = 0

let terminator f bid =
  let insts = block_insts f bid in
  if Vec.is_empty insts then None
  else
    let last = Vec.last insts in
    if Op.is_terminator f.ops.(last) then Some last else None

(** Iterate successor blocks of [bid] (in branch order). *)
let iter_succs f bid k =
  match terminator f bid with
  | None -> ()
  | Some t -> (
      match f.ops.(t) with
      | Op.Br -> k f.xs.(t)
      | Op.Condbr ->
          k f.ys.(t);
          k f.zs.(t)
      | Op.Ret | Op.Unreachable -> ()
      | _ -> ())

(** Iterate value operands of instruction [i]. Block references and symbol
    ids are not visited. *)
let iter_operands f i k =
  match f.ops.(i) with
  | Op.Nop | Op.Arg | Op.Const | Op.Const128 | Op.Param | Op.Unreachable | Op.Br -> ()
  | Op.Isnull | Op.Isnotnull | Op.Zext | Op.Sext | Op.Trunc | Op.Sitofp
  | Op.Fptosi | Op.Load | Op.Condbr ->
      k f.xs.(i)
  | Op.Ret -> if f.xs.(i) >= 0 then k f.xs.(i)
  | Op.Add | Op.Sub | Op.Mul | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem
  | Op.Saddtrap | Op.Ssubtrap | Op.Smultrap | Op.And | Op.Or | Op.Xor | Op.Shl
  | Op.Lshr | Op.Ashr | Op.Rotr | Op.Cmp | Op.Store | Op.Crc32
  | Op.Longmulfold | Op.Atomicadd | Op.Fadd | Op.Fsub | Op.Fmul | Op.Fdiv
  | Op.Fcmp ->
      k f.xs.(i);
      k f.ys.(i)
  | Op.Select ->
      k f.xs.(i);
      k f.ys.(i);
      k f.zs.(i)
  | Op.Gep ->
      k f.xs.(i);
      if f.ys.(i) >= 0 then k f.ys.(i)
  | Op.Phi ->
      for j = 0 to f.ns.(i) - 1 do
        k (Vec.get f.extra (f.xs.(i) + (2 * j) + 1))
      done
  | Op.Call ->
      for j = 0 to f.ns.(i) - 1 do
        k (Vec.get f.extra (f.xs.(i) + j))
      done

(** [count_uses f cnt] sets [cnt.(v + 1)] to the number of times value [v]
    is an operand in [f], counting every operand {!iter_operands} visits,
    in every instruction (dead ones included), and returns whether [f] has
    a phi. [cnt] needs [num_insts f + 1] cells.

    Only [Br], [Condbr], [Const128], [Phi] and [Call] keep anything but
    operands in their x/y/z fields, and a field an opcode does not use
    holds -1 (as [add_inst] leaves it), so every other instruction counts
    all three fields: a -1 lands in the scratch cell 0. That keeps the
    loop free of a dispatch on the opcode, which mispredicts every few
    instructions. A field left holding something else is counted too:
    an overcount, never an undercount. No closure, so back-ends can
    afford it on their per-query path. *)
let count_uses f cnt =
  let n = f.n_insts in
  if Array.length cnt <= n then invalid_arg "Func.count_uses";
  for v = 0 to n do
    Array.unsafe_set cnt v 0
  done;
  let ops = f.ops and xs = f.xs and ys = f.ys and zs = f.zs in
  (* phi and call operands live in [extra]: a second pass, so that this
     loop makes no call and keeps its columns in registers *)
  let pooled = ref false in
  for i = 0 to n - 1 do
    let op = Array.unsafe_get ops i in
    if op == Op.Br || op == Op.Const128 then ()
    else if op == Op.Condbr then begin
      let x = Array.unsafe_get xs i + 1 in
      cnt.(x) <- cnt.(x) + 1
    end
    else if op == Op.Phi || op == Op.Call then pooled := true
    else begin
      let x = Array.unsafe_get xs i + 1 in
      cnt.(x) <- cnt.(x) + 1;
      let y = Array.unsafe_get ys i + 1 in
      cnt.(y) <- cnt.(y) + 1;
      let z = Array.unsafe_get zs i + 1 in
      cnt.(z) <- cnt.(z) + 1
    end
  done;
  let has_phi = ref false in
  if !pooled then begin
    let extra = Vec.unsafe_data f.extra in
    for i = 0 to n - 1 do
      let op = Array.unsafe_get ops i in
      if op == Op.Phi || op == Op.Call then begin
        let phi = op == Op.Phi in
        if phi then has_phi := true;
        let base = Array.unsafe_get xs i in
        for j = 0 to Array.unsafe_get f.ns i - 1 do
          let v = 1 + extra.(if phi then base + (2 * j) + 1 else base + j) in
          cnt.(v) <- cnt.(v) + 1
        done
      end
    done
  end;
  !has_phi

(** [phi_incoming f i] is the [(pred_block, value)] list of a phi. *)
let phi_incoming f i =
  assert (f.ops.(i) = Op.Phi);
  let rec go j acc =
    if j < 0 then acc
    else
      let b = Vec.get f.extra (f.xs.(i) + (2 * j)) in
      let v = Vec.get f.extra (f.xs.(i) + (2 * j) + 1) in
      go (j - 1) ((b, v) :: acc)
  in
  go (f.ns.(i) - 1) []

(** [phi_incoming_from f i pred] is the value phi [i] takes on the edge
    from block [pred] (its first entry for [pred]), or -1 if it has none.
    Unlike [phi_incoming], allocates nothing. *)
let phi_incoming_from f i pred =
  assert (f.ops.(i) = Op.Phi);
  let base = f.xs.(i) and n = f.ns.(i) in
  let rec go j =
    if j >= n then -1
    else if Vec.get f.extra (base + (2 * j)) = pred then
      Vec.get f.extra (base + (2 * j) + 1)
    else go (j + 1)
  in
  go 0

(** [call_args f i] is the argument list of a call. *)
let call_args f i =
  assert (f.ops.(i) = Op.Call);
  let rec go j acc =
    if j < 0 then acc else go (j - 1) (Vec.get f.extra (f.xs.(i) + j) :: acc)
  in
  go (f.ns.(i) - 1) []

(* ------------------------------------------------------------------ *)
(* Modules                                                             *)

let dummy_func = create ~name:"<dummy>" ~ret:Ty.Void ~args:[||]

let create_module name =
  {
    mod_name = name;
    funcs = Vec.create ~dummy:dummy_func ();
    externs =
      Vec.create ~dummy:{ ext_name = ""; ext_args = [||]; ext_ret = Ty.Void }
        ();
    extern_index = Hashtbl.create 16;
    param_sig = [||];
  }

let add_func m f = ignore (Vec.push m.funcs f)

(** Intern an external (runtime) function, returning its symbol id. *)
let extern_id m ~name ~args ~ret =
  match Hashtbl.find_opt m.extern_index name with
  | Some id -> id
  | None ->
      let id =
        Vec.push m.externs { ext_name = name; ext_args = args; ext_ret = ret }
      in
      Hashtbl.add m.extern_index name id;
      id

let extern m id = Vec.get m.externs id
let num_externs m = Vec.length m.externs
