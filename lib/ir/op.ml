(** Umbra IR opcodes.

    The set mirrors the operations the paper describes: plain and
    overflow-trapping arithmetic, 128-bit support, [crc32] and long-mul-fold
    hashing primitives, [getelementptr], [isnull], runtime calls, and simple
    control flow. All constructors are constant so an [t array] is unboxed. *)

type cmp =
  | Eq
  | Ne
  | Slt
  | Sle
  | Sgt
  | Sge
  | Ult
  | Ule
  | Ugt
  | Uge

type t =
  | Nop
  | Arg  (** function parameter; the first [n_args] values of a function *)
  | Const  (** imm = value (sign-extended for narrow types) *)
  | Const128  (** imm = low half, imm2 via extra pool? stored as two consts *)
  | Param
      (** imm = parameter-vector index; a link-time hole bound by
          [Backend.link_artifact ~params]. I128 params derive the high
          lane as [lo asr 63]; never constant-folded. *)
  | Isnull  (** x -> i1, true when x = 0 *)
  | Isnotnull
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | Saddtrap  (** signed add, calls the overflow trap on wrap *)
  | Ssubtrap
  | Smultrap
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Rotr
  | Cmp  (** n = cmp predicate ordinal *)
  | Zext
  | Sext
  | Trunc
  | Select  (** x = cond, y = if-true, z = if-false *)
  | Phi  (** n = incoming count, x = extra offset of (block, value) pairs *)
  | Load  (** x = address, imm = byte offset *)
  | Store  (** x = value, y = address, imm = byte offset; no result *)
  | Gep  (** x = base, y = index value (or -1), imm = const offset, n = scale *)
  | Crc32  (** x = 64-bit accumulator, y = value *)
  | Longmulfold  (** 64x64 -> 128 multiply, XOR-fold halves *)
  | Atomicadd  (** x = address, y = value; returns old value *)
  | Call  (** z = external symbol id, x = extra offset of args, n = count *)
  | Br  (** x = target block *)
  | Condbr  (** x = condition, y = then block, z = else block *)
  | Ret  (** x = value or -1 for void *)
  | Unreachable
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcmp  (** n = cmp predicate ordinal (ordered) *)
  | Sitofp
  | Fptosi

let cmp_of_int = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Slt
  | 3 -> Sle
  | 4 -> Sgt
  | 5 -> Sge
  | 6 -> Ult
  | 7 -> Ule
  | 8 -> Ugt
  | 9 -> Uge
  | _ -> invalid_arg "Op.cmp_of_int"

let cmp_to_int = function
  | Eq -> 0
  | Ne -> 1
  | Slt -> 2
  | Sle -> 3
  | Sgt -> 4
  | Sge -> 5
  | Ult -> 6
  | Ule -> 7
  | Ugt -> 8
  | Uge -> 9

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

(** Evaluate a comparison over the sign of [compare]-style results. *)
let cmp_eval pred ~signed_cmp ~unsigned_cmp =
  match pred with
  | Eq -> signed_cmp = 0
  | Ne -> signed_cmp <> 0
  | Slt -> signed_cmp < 0
  | Sle -> signed_cmp <= 0
  | Sgt -> signed_cmp > 0
  | Sge -> signed_cmp >= 0
  | Ult -> unsigned_cmp < 0
  | Ule -> unsigned_cmp <= 0
  | Ugt -> unsigned_cmp > 0
  | Uge -> unsigned_cmp >= 0

let is_terminator = function
  | Br | Condbr | Ret | Unreachable -> true
  | _ -> false

(** Instructions that must not be eliminated, reordered across each other, or
    duplicated. *)
let has_side_effect = function
  | Store | Call | Atomicadd | Br | Condbr | Ret | Unreachable | Saddtrap
  | Ssubtrap | Smultrap | Sdiv | Srem | Udiv | Urem ->
      true
  | Nop | Arg | Const | Const128 | Param | Isnull | Isnotnull | Add | Sub
  | Mul | And | Or | Xor | Shl | Lshr | Ashr | Rotr | Cmp | Zext | Sext
  | Trunc | Select | Phi | Load | Gep | Crc32 | Longmulfold | Fadd | Fsub
  | Fmul | Fdiv | Fcmp | Sitofp | Fptosi ->
      false

(** Pure ops are candidates for CSE/LICM (loads excluded: memory-dependent). *)
let is_pure = function
  | Param
  (* a bound hole is as constant as Const — the value never changes within
     one linked instance, so CSE/LICM are sound; folding never applies
     because folds match [Const] positively *)
  | Const | Const128 | Isnull | Isnotnull | Add | Sub | Mul | And | Or | Xor
  | Shl | Lshr | Ashr | Rotr | Cmp | Zext | Sext | Trunc | Select | Gep
  | Crc32 | Longmulfold | Fadd | Fsub | Fmul | Fdiv | Fcmp | Sitofp | Fptosi ->
      true
  | Nop | Arg | Phi | Load | Store | Call | Atomicadd | Br | Condbr | Ret
  | Unreachable | Saddtrap | Ssubtrap | Smultrap | Sdiv | Udiv | Srem | Urem ->
      false

let name = function
  | Nop -> "nop"
  | Arg -> "arg"
  | Const -> "const"
  | Const128 -> "const128"
  | Param -> "param"
  | Isnull -> "isnull"
  | Isnotnull -> "isnotnull"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"
  | Srem -> "srem"
  | Urem -> "urem"
  | Saddtrap -> "saddtrap"
  | Ssubtrap -> "ssubtrap"
  | Smultrap -> "smultrap"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | Rotr -> "rotr"
  | Cmp -> "cmp"
  | Zext -> "zext"
  | Sext -> "sext"
  | Trunc -> "trunc"
  | Select -> "select"
  | Phi -> "phi"
  | Load -> "load"
  | Store -> "store"
  | Gep -> "getelementptr"
  | Crc32 -> "crc32"
  | Longmulfold -> "longmulfold"
  | Atomicadd -> "atomicadd"
  | Call -> "call"
  | Br -> "br"
  | Condbr -> "condbr"
  | Ret -> "return"
  | Unreachable -> "unreachable"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fcmp -> "fcmp"
  | Sitofp -> "sitofp"
  | Fptosi -> "fptosi"
