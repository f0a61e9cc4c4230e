(** LLVM-IR-like intermediate representation (Sec. V).

    Deliberately shaped like LLVM's: instructions are individually
    heap-allocated objects with operand arrays and maintained use lists,
    basic blocks own instruction sequences, constants are (unshared) value
    objects. The paper measures the allocation/construction cost of these
    objects during IR generation and the cost of destructing modules —
    representational choices we reproduce rather than optimize away.

    Types include [I128] (native, as Umbra uses for int128) and [Pair]
    (an anonymous {i64, i64} struct) — the representation whose avoidance
    is the second compile-time optimization of Sec. V-A2. Overflow
    arithmetic appears as intrinsic calls returning a [Pair] of result and
    flag, mirroring [llvm.sadd.with.overflow]. *)

type ty = Void | I1 | I8 | I16 | I32 | I64 | I128 | Ptr | F64 | Pair

let ty_size_bits = function
  | Void -> 0
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 | Ptr | F64 -> 64
  | I128 | Pair -> 128

type icmp_pred = Qcomp_ir.Op.cmp

type intrinsic =
  | Sadd_ovf of ty
  | Ssub_ovf of ty
  | Smul_ovf of ty  (** returns Pair of (value-as-i64-truncated..., flag) *)
  | Crc32  (** i64 crc32c step *)
  | Fshr  (** funnel shift right = rotate for equal operands *)

type callee =
  | Extern of int  (** module symbol *)
  | Named of string  (** runtime helper referenced directly by name *)
  | Intr of intrinsic

type iop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Icmp of icmp_pred
  | Fcmp of icmp_pred
  | Trunc
  | Zext
  | Sext
  | Sitofp
  | Fptosi
  | Gep
      (** operands: base ptr, index (i64), scale, offset — the address
          [base + index * scale + offset], as LLVM's GEP into an array of
          [scale]-byte elements at a constant field offset. Scale and
          offset are i64 constants; without a variable index the index is
          the constant 0 (see {!gep_operands}). *)
  | Load
  | Store  (** operands: value, ptr *)
  | Phi  (** operands parallel to [phi_blocks] *)
  | Select
  | Call of callee
  | Extractvalue of int  (** field of a Pair *)
  | Makepair  (** operands: lo, hi — builds a Pair (insertvalue chain) *)
  | Br  (** [targets] = [b] *)
  | Condbr  (** operand: cond; [targets] = [then; else] *)
  | Ret  (** 0 or 1 operand *)
  | Unreachable
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Atomicrmw_add  (** operands: ptr, value *)
  | Freeze  (** used as a cheap unary no-op in some expansions *)
  | Pairof  (** i128 -> Pair: models the insertvalue chain building the
                {i64,i64} struct of the pairs-as-struct representation *)
  | Pairval  (** Pair -> i128: the matching extractvalue chain *)

type value = Vinst of inst | Varg of int * ty | Vconst of ty * int64 | Vconst128 of Qcomp_support.I128.t

and inst = {
  iid : int;
  mutable iop : iop;
  ity : ty;
  mutable operands : value array;
  mutable phi_blocks : block array;  (** parallel to operands for phis *)
  mutable targets : block array;  (** successor blocks of terminators *)
  mutable parent : block option;
  mutable users : inst list;  (** the use list *)
  mutable deleted : bool;
}

and block = {
  bid : int;
  mutable insts : inst Qcomp_support.Vec.t;
  mutable bparent : func option;
}

and func = {
  fid : int;
  lname : string;
  arg_tys : ty array;
  ret_ty : ty;
  mutable blocks : block Qcomp_support.Vec.t;
  mutable next_inst_id : int;
  mutable next_block_id : int;
}

type modul = {
  mutable funcs : func list;
  externs : Qcomp_ir.Func.extern_fn array;
  mutable next_fid : int;
}

(** The operands of a [Gep] computing [base + index * scale + off]. *)
let gep_operands ~base ~index ~scale ~off =
  [| base; index; Vconst (I64, Int64.of_int scale); Vconst (I64, off) |]

(** A [Gep]'s constant scale and offset. *)
let gep_scale_off (i : inst) =
  match (i.operands.(2), i.operands.(3)) with
  | Vconst (_, s), Vconst (_, o) -> (Int64.to_int s, o)
  | _ -> invalid_arg "Lir.gep_scale_off: scale and offset must be constants"

(** [Some k] when [scale = 1 lsl k]: the shift a scale becomes. *)
let scale_shift scale =
  if scale > 0 && scale land (scale - 1) = 0 then
    let rec go k = if 1 lsl k = scale then k else go (k + 1) in
    Some (go 0)
  else None

let dummy_inst =
  {
    iid = -1;
    iop = Unreachable;
    ity = Void;
    operands = [||];
    phi_blocks = [||];
    targets = [||];
    parent = None;
    users = [];
    deleted = true;
  }

let dummy_block =
  { bid = -1; insts = Qcomp_support.Vec.create ~dummy:dummy_inst (); bparent = None }

let create_module externs = { funcs = []; externs; next_fid = 0 }

let create_func m ~name ~arg_tys ~ret_ty =
  let f =
    {
      fid = m.next_fid;
      lname = name;
      arg_tys;
      ret_ty;
      blocks = Qcomp_support.Vec.create ~dummy:dummy_block ();
      next_inst_id = 0;
      next_block_id = 0;
    }
  in
  m.next_fid <- m.next_fid + 1;
  m.funcs <- f :: m.funcs;
  f

let new_block f =
  let b =
    {
      bid = f.next_block_id;
      insts = Qcomp_support.Vec.create ~dummy:dummy_inst ();
      bparent = Some f;
    }
  in
  f.next_block_id <- f.next_block_id + 1;
  ignore (Qcomp_support.Vec.push f.blocks b);
  b

let value_ty = function
  | Vinst i -> i.ity
  | Varg (_, ty) -> ty
  | Vconst (ty, _) -> ty
  | Vconst128 _ -> I128

let add_user (v : value) (u : inst) =
  match v with Vinst i -> i.users <- u :: i.users | _ -> ()

let remove_user (v : value) (u : inst) =
  match v with
  | Vinst i ->
      (* removes ONE occurrence *)
      let rec rm = function
        | [] -> []
        | x :: r -> if x == u then r else x :: rm r
      in
      i.users <- rm i.users
  | _ -> ()

(** Create an instruction appended to [b]. *)
let mk_inst (f : func) (b : block) ~iop ~ity ?(operands = [||])
    ?(phi_blocks = [||]) ?(targets = [||]) () =
  let i =
    {
      iid = f.next_inst_id;
      iop;
      ity;
      operands;
      phi_blocks;
      targets;
      parent = Some b;
      users = [];
      deleted = false;
    }
  in
  f.next_inst_id <- f.next_inst_id + 1;
  Array.iter (fun v -> add_user v i) operands;
  ignore (Qcomp_support.Vec.push b.insts i);
  i

(** Create a phi shell inserted at the *front* of [b] (phis must precede
    the terminator; SSA builders create them while the block is already
    filled). *)
let mk_phi_front (f : func) (b : block) ~ity =
  let i =
    {
      iid = f.next_inst_id;
      iop = Phi;
      ity;
      operands = [||];
      phi_blocks = [||];
      targets = [||];
      parent = Some b;
      users = [];
      deleted = false;
    }
  in
  f.next_inst_id <- f.next_inst_id + 1;
  let nv = Qcomp_support.Vec.create ~dummy:dummy_inst () in
  ignore (Qcomp_support.Vec.push nv i);
  Qcomp_support.Vec.iter (fun j -> ignore (Qcomp_support.Vec.push nv j)) b.insts;
  b.insts <- nv;
  i

(** Replace all uses of [old_i] with [v]; maintains use lists. *)
let replace_all_uses (old_i : inst) (v : value) =
  List.iter
    (fun (u : inst) ->
      Array.iteri
        (fun k op ->
          match op with
          | Vinst oi when oi == old_i ->
              u.operands.(k) <- v;
              add_user v u
          | _ -> ())
        u.operands)
    old_i.users;
  old_i.users <- []

(** Mark deleted and drop operand uses. *)
let erase (i : inst) =
  if not i.deleted then begin
    Array.iter (fun v -> remove_user v i) i.operands;
    i.deleted <- true
  end

let set_operand (u : inst) k (v : value) =
  remove_user u.operands.(k) u;
  u.operands.(k) <- v;
  add_user v u

let iter_insts (b : block) k =
  Qcomp_support.Vec.iter (fun i -> if not i.deleted then k i) b.insts

let iter_blocks (f : func) k = Qcomp_support.Vec.iter k f.blocks

let terminator (b : block) =
  let n = Qcomp_support.Vec.length b.insts in
  let rec go k =
    if k < 0 then None
    else
      let i = Qcomp_support.Vec.get b.insts k in
      if i.deleted then go (k - 1)
      else
        match i.iop with
        | Br | Condbr | Ret | Unreachable -> Some i
        | _ -> None
  in
  go (n - 1)

let succs (b : block) =
  match terminator b with None -> [] | Some t -> Array.to_list t.targets

(** Rebuild a block's instruction vector without tombstones (compaction,
    also part of "destructing" cost accounting). *)
let compact (b : block) =
  let live = Qcomp_support.Vec.create ~dummy:dummy_inst () in
  Qcomp_support.Vec.iter
    (fun i -> if not i.deleted then ignore (Qcomp_support.Vec.push live i))
    b.insts;
  b.insts <- live

let num_insts (f : func) =
  let n = ref 0 in
  iter_blocks f (fun b -> iter_insts b (fun _ -> incr n));
  !n

(** Module destruction: walk everything and sever links, as ~LLVM does when
    deleting a module (the paper measures this at ~1% of cheap compile
    time). *)
let destroy_module (m : modul) =
  List.iter
    (fun f ->
      iter_blocks f (fun b ->
          iter_insts b (fun i ->
              i.users <- [];
              i.operands <- [||];
              i.parent <- None);
          b.bparent <- None))
    m.funcs;
  m.funcs <- []
