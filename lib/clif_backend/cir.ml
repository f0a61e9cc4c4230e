(** Cranelift-like IR (Sec. VI).

    Deliberately mirrors CIR's design points called out by the paper:
    - a small type set: scalar integers (8–128 bit) and f64; **no pointer
      or aggregate types** — addresses are plain [I64] integers and
      [getelementptr] is lowered to integer arithmetic by the front-end;
    - fixed-size instructions stored in one contiguous array;
    - array-backed linked lists for the instruction order inside blocks;
    - blocks with block parameters instead of phis;
    - no intrinsics — special operations either exist as (our custom)
      instructions or become calls to helper functions whose addresses are
      hard-wired into the code as constants. *)

open Qcomp_support

type ty = I8 | I16 | I32 | I64 | I128 | F64

let ty_bits = function I8 -> 8 | I16 -> 16 | I32 -> 32 | I64 -> 64 | I128 -> 128 | F64 -> 64

type cond = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

(* Opcodes. The [crc32], overflow-trapping and [mul_full] instructions are
   the custom additions measured in Table II; the front-end only emits them
   when the corresponding feature flag is on, calling helpers otherwise. *)
type opcode =
  | Iconst  (** imm *)
  | Iadd
  | Isub
  | Imul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | Band
  | Bor
  | Bxor
  | Ishl
  | Ushr
  | Sshr
  | Rotr
  | Icmp  (** aux = cond *)
  | Fcmp  (** aux = cond *)
  | Uextend
  | Sextend
  | Ireduce
  | Select  (** args: cond, a, b *)
  | Load  (** imm = offset; aux = log2 size | sext flag *)
  | Store  (** args: value, addr; imm = offset *)
  | Call_indirect  (** args: callee :: arguments; aux = number of results *)
  | Jump  (** aux = target block; args = block arguments *)
  | Brif  (** args: cond :: then-args ++ else-args; aux/aux2 = blocks *)
  | Return  (** args: values *)
  | Trap  (** imm = code *)
  | Umulhi
  | Smulhi
  | Mul_full  (** custom: full 64x64 -> 128 product *)
  | Crc32c  (** custom *)
  | Sadd_trap  (** custom overflow-trapping arithmetic *)
  | Ssub_trap
  | Smul_trap
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcvt_to_sint
  | Fcvt_from_sint
  | Isplit_lo  (** low half of an i128 *)
  | Isplit_hi
  | Iconcat  (** args: lo, hi -> i128 *)
  | Nop

(* One instruction = one slot in the struct-of-arrays. Values are
   instruction results; block parameters are values too (they live in a
   separate numbering range recorded per block). *)

type func = {
  fname : string;
  mutable sig_params : ty array;
  mutable sig_ret : ty option;
  (* instruction pool *)
  mutable op : opcode array;
  mutable ity : ty array;  (** result type (meaningless for void ops) *)
  mutable imm : int64 array;
  mutable aux : int array;
  mutable aux2 : int array;
  mutable args_off : int array;  (** offset into [value_pool] *)
  mutable args_len : int array;
  mutable ninsts : int;
  value_pool : int Vec.t;
  (* instruction order: array-backed linked list, as in Cranelift *)
  mutable next_inst : int array;
  mutable prev_inst : int array;
  (* blocks *)
  mutable block_head : int array;  (** first instruction, -1 if empty *)
  mutable block_tail : int array;
  mutable block_params : int array array;  (** value ids of the params *)
  mutable block_param_tys : ty array array;
  mutable nblocks : int;
  (* values: results and block params share the value numbering;
     value v comes from instruction [value_def.(v)] or block param (-1) *)
  mutable value_ty : ty array;
  mutable value_def : int array;
  mutable nvalues : int;
}

let initial = 64

let create_func fname =
  {
    fname;
    sig_params = [||];
    sig_ret = None;
    op = Array.make initial Nop;
    ity = Array.make initial I64;
    imm = Array.make initial 0L;
    aux = Array.make initial 0;
    aux2 = Array.make initial 0;
    args_off = Array.make initial 0;
    args_len = Array.make initial 0;
    ninsts = 0;
    value_pool = Vec.create ~dummy:(-1) ();
    next_inst = Array.make initial (-1);
    prev_inst = Array.make initial (-1);
    block_head = Array.make 8 (-1);
    block_tail = Array.make 8 (-1);
    block_params = Array.make 8 [||];
    block_param_tys = Array.make 8 [||];
    nblocks = 0;
    value_ty = Array.make initial I64;
    value_def = Array.make initial (-1);
    nvalues = 0;
  }

let grow_insts f =
  let cap = Array.length f.op in
  let cap' = 2 * cap in
  let g dflt a =
    let a' = Array.make cap' dflt in
    Array.blit a 0 a' 0 cap;
    a'
  in
  f.op <- g Nop f.op;
  f.ity <- g I64 f.ity;
  f.imm <- g 0L f.imm;
  f.aux <- g 0 f.aux;
  f.aux2 <- g 0 f.aux2;
  f.args_off <- g 0 f.args_off;
  f.args_len <- g 0 f.args_len;
  f.next_inst <- g (-1) f.next_inst;
  f.prev_inst <- g (-1) f.prev_inst

let grow_values f =
  let cap = Array.length f.value_ty in
  let cap' = 2 * cap in
  let g dflt a =
    let a' = Array.make cap' dflt in
    Array.blit a 0 a' 0 cap;
    a'
  in
  f.value_ty <- g I64 f.value_ty;
  f.value_def <- g (-1) f.value_def

let new_value f ty ~def =
  if f.nvalues = Array.length f.value_ty then grow_values f;
  let v = f.nvalues in
  f.value_ty.(v) <- ty;
  f.value_def.(v) <- def;
  f.nvalues <- v + 1;
  v

let new_block f ~params =
  if f.nblocks = Array.length f.block_head then begin
    let cap' = 2 * f.nblocks in
    let g dflt a =
      let a' = Array.make cap' dflt in
      Array.blit a 0 a' 0 f.nblocks;
      a'
    in
    f.block_head <- g (-1) f.block_head;
    f.block_tail <- g (-1) f.block_tail;
    f.block_params <- g [||] f.block_params;
    f.block_param_tys <- g [||] f.block_param_tys
  end;
  let b = f.nblocks in
  f.nblocks <- b + 1;
  f.block_param_tys.(b) <- params;
  f.block_params.(b) <- Array.map (fun ty -> new_value f ty ~def:(-1)) params;
  b

let push_args f args =
  match args with
  | [] -> (0, 0)
  | _ ->
      let off = Vec.length f.value_pool in
      List.iter (fun a -> ignore (Vec.push f.value_pool a)) args;
      (off, List.length args)

(** Append an instruction to block [b]; returns the result value (or -1 for
    void ops). *)
let append f b ~op ?(ty = I64) ?(imm = 0L) ?(aux = 0) ?(aux2 = 0) ?(args = [])
    ~has_result () =
  if f.ninsts = Array.length f.op then grow_insts f;
  let i = f.ninsts in
  f.ninsts <- i + 1;
  f.op.(i) <- op;
  f.ity.(i) <- ty;
  f.imm.(i) <- imm;
  f.aux.(i) <- aux;
  f.aux2.(i) <- aux2;
  let off, len = push_args f args in
  f.args_off.(i) <- off;
  f.args_len.(i) <- len;
  (* linked-list insertion at block tail *)
  f.next_inst.(i) <- -1;
  f.prev_inst.(i) <- f.block_tail.(b);
  if f.block_tail.(b) >= 0 then f.next_inst.(f.block_tail.(b)) <- i
  else f.block_head.(b) <- i;
  f.block_tail.(b) <- i;
  if has_result then new_value f f.ity.(i) ~def:i else -1

let inst_args f i =
  let off = f.args_off.(i) and len = f.args_len.(i) in
  List.init len (fun k -> Vec.get f.value_pool (off + k))

let iter_block_insts f b k =
  let i = ref f.block_head.(b) in
  while !i >= 0 do
    k !i;
    i := f.next_inst.(!i)
  done

(** Successor blocks of block [b] (from its terminator). *)
let succs f b =
  match f.block_tail.(b) with
  | -1 -> []
  | t -> (
      match f.op.(t) with
      | Jump -> [ f.aux.(t) ]
      | Brif -> [ f.aux.(t); f.aux2.(t) ]
      | _ -> [])

let cond_of_cmp (c : Qcomp_ir.Op.cmp) : cond =
  match c with
  | Qcomp_ir.Op.Eq -> Eq
  | Qcomp_ir.Op.Ne -> Ne
  | Qcomp_ir.Op.Slt -> Slt
  | Qcomp_ir.Op.Sle -> Sle
  | Qcomp_ir.Op.Sgt -> Sgt
  | Qcomp_ir.Op.Sge -> Sge
  | Qcomp_ir.Op.Ult -> Ult
  | Qcomp_ir.Op.Ule -> Ule
  | Qcomp_ir.Op.Ugt -> Ugt
  | Qcomp_ir.Op.Uge -> Uge

let cond_to_minst (c : cond) : Qcomp_vm.Minst.cond =
  match c with
  | Eq -> Qcomp_vm.Minst.Eq
  | Ne -> Qcomp_vm.Minst.Ne
  | Slt -> Qcomp_vm.Minst.Slt
  | Sle -> Qcomp_vm.Minst.Sle
  | Sgt -> Qcomp_vm.Minst.Sgt
  | Sge -> Qcomp_vm.Minst.Sge
  | Ult -> Qcomp_vm.Minst.Ult
  | Ule -> Qcomp_vm.Minst.Ule
  | Ugt -> Qcomp_vm.Minst.Ugt
  | Uge -> Qcomp_vm.Minst.Uge
