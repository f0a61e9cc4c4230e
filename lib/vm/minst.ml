(** Decoded machine instructions.

    This is the form the emulator executes and the common vocabulary of the
    per-target encoders/decoders. Back-ends construct these values and hand
    them to {!Asm}, which encodes them to bytes (possibly expanding pseudos
    such as 64-bit immediates on A64); execution decodes the bytes back.

    Branch targets are absolute byte offsets within the containing code
    blob. *)

type cond =
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
  | Ov
  | Noov

type alu =
  | Add
  | Sub
  | Adc
  | Sbb
  | And
  | Or
  | Xor
  | Mul  (** low 64 bits; sets overflow flags for signed 64-bit multiply *)
  | Shl
  | Shr
  | Sar
  | Ror

type falu = Fadd | Fsub | Fmul | Fdiv

type t =
  | Nop
  | Mov_rr of int * int  (** dst, src *)
  | Mov_ri of int * int64  (** pseudo on A64: expands to Movz/Movk *)
  | Movz of int * int * int  (** dst, imm16, shift/16 — A64 only *)
  | Movk of int * int * int
  | Alu_rr of alu * int * int  (** dst = dst op src; sets flags *)
  | Alu_ri of alu * int * int64  (** imm must fit int32 on X64 *)
  | Alu_rrr of alu * int * int * int  (** A64 three-address: dst = a op b *)
  | Alu_rri of alu * int * int * int64
  | Cmp_rr of int * int
  | Cmp_ri of int * int64
  | Ld of { dst : int; base : int; off : int; size : int; sext : bool }
  | St of { src : int; base : int; off : int; size : int }
  | Ldx of { dst : int; base : int; index : int; scale : int; off : int; size : int; sext : bool }
      (** load from [base + index * scale + off]. X64: [base = -1] when
          absent, scale in 1/2/4/8, [off] a disp32. A64 encodes only
          [ldr Xt, [Xn, Xm, lsl #k]]: a base, [off = 0] and scale 1 or
          [size] *)
  | Lea of { dst : int; base : int; index : int; scale : int; off : int }
      (** [index = -1] when absent; scale in 1/2/4/8. X64 also has
          [base = -1] with an index: [index * scale + off] *)
  | Ext of { dst : int; src : int; bits : int; signed : bool }
      (** movzx/movsx / uxt*/sxt*: extend low [bits] of [src] *)
  | Mul_wide of { signed : bool; src : int }
      (** X64 only: rdx:rax = rax * src *)
  | Mul_hi of { signed : bool; dst : int; a : int; b : int }  (** A64 only *)
  | Div of { signed : bool; src : int }
      (** X64 only: rax = rdx:rax / src, rdx = remainder (inputs must have
          rdx as sign/zero extension of rax) *)
  | Div_rrr of { signed : bool; dst : int; a : int; b : int }  (** A64 *)
  | Msub of { dst : int; a : int; b : int; c : int }
      (** A64: dst = c - a*b (remainder idiom) *)
  | Crc32_rr of int * int  (** X64: dst = crc32c(dst, src) *)
  | Crc32_rrr of int * int * int  (** A64: dst = crc32c(a, b) *)
  | Setcc of cond * int
  | Csel of { cond : cond; dst : int; a : int; b : int }
      (** dst = cond ? a : b. X64 encodes as cmov and requires dst = a. *)
  | Jmp of int  (** absolute byte offset in blob *)
  | Jcc of cond * int
  | Jmp_ind of int  (** register holding target address *)
  | Jmp_mem of int64  (** jump through memory slot (PLT through GOT) *)
  | Call_rel of int  (** byte offset in same blob *)
  | Call_ind of int
  | Ret
  | Falu_rr of falu * int * int  (** float bits in GPRs; dst = dst op src *)
  | Falu_rrr of falu * int * int * int
  | Fcmp_rr of int * int
  | Cvt_si2f of int * int
  | Cvt_f2si of int * int
  | Brk of int  (** trap with cause code *)

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "lt"
  | Sle -> "le"
  | Sgt -> "gt"
  | Sge -> "ge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"
  | Ov -> "o"
  | Noov -> "no"

(** The condition that holds exactly when [c] does not, on the same
    flags: [Jcc (cond_negate c, t)] falls through where [Jcc (c, t)]
    branches. *)
let cond_negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Slt -> Sge
  | Sge -> Slt
  | Sle -> Sgt
  | Sgt -> Sle
  | Ult -> Uge
  | Uge -> Ult
  | Ule -> Ugt
  | Ugt -> Ule
  | Ov -> Noov
  | Noov -> Ov

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Mul -> "mul"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Ror -> "ror"

(* [base + index*scale + off], either register absent when -1 *)
let pp_addr r fmt (base, index, scale, off) =
  match (base >= 0, index >= 0) with
  | true, true -> Format.fprintf fmt "%s + %s*%d + %d" (r base) (r index) scale off
  | true, false -> Format.fprintf fmt "%s + %d" (r base) off
  | false, _ -> Format.fprintf fmt "%s*%d + %d" (r index) scale off

let pp target fmt (i : t) =
  let r = Target.reg_name target in
  match i with
  | Nop -> Format.fprintf fmt "nop"
  | Mov_rr (d, s) -> Format.fprintf fmt "mov %s, %s" (r d) (r s)
  | Mov_ri (d, v) -> Format.fprintf fmt "mov %s, %Ld" (r d) v
  | Movz (d, v, s) -> Format.fprintf fmt "movz %s, %d, lsl %d" (r d) v (16 * s)
  | Movk (d, v, s) -> Format.fprintf fmt "movk %s, %d, lsl %d" (r d) v (16 * s)
  | Alu_rr (op, d, s) -> Format.fprintf fmt "%s %s, %s" (alu_name op) (r d) (r s)
  | Alu_ri (op, d, v) -> Format.fprintf fmt "%s %s, %Ld" (alu_name op) (r d) v
  | Alu_rrr (op, d, a, b) ->
      Format.fprintf fmt "%s %s, %s, %s" (alu_name op) (r d) (r a) (r b)
  | Alu_rri (op, d, a, v) ->
      Format.fprintf fmt "%s %s, %s, %Ld" (alu_name op) (r d) (r a) v
  | Cmp_rr (a, b) -> Format.fprintf fmt "cmp %s, %s" (r a) (r b)
  | Cmp_ri (a, v) -> Format.fprintf fmt "cmp %s, %Ld" (r a) v
  | Ld { dst; base; off; size; sext } ->
      Format.fprintf fmt "ld%d%s %s, [%s + %d]" size (if sext then "s" else "")
        (r dst) (r base) off
  | St { src; base; off; size } ->
      Format.fprintf fmt "st%d %s, [%s + %d]" size (r src) (r base) off
  | Ldx { dst; base; index; scale; off; size; sext } ->
      Format.fprintf fmt "ld%d%s %s, [%a]" size (if sext then "s" else "") (r dst)
        (pp_addr r) (base, index, scale, off)
  | Lea { dst; base; index; scale; off } ->
      Format.fprintf fmt "lea %s, [%a]" (r dst) (pp_addr r) (base, index, scale, off)
  | Ext { dst; src; bits; signed } ->
      Format.fprintf fmt "%s%d %s, %s" (if signed then "sext" else "zext") bits
        (r dst) (r src)
  | Mul_wide { signed; src } ->
      Format.fprintf fmt "%s %s" (if signed then "imulw" else "mulw") (r src)
  | Mul_hi { signed; dst; a; b } ->
      Format.fprintf fmt "%s %s, %s, %s"
        (if signed then "smulh" else "umulh")
        (r dst) (r a) (r b)
  | Div { signed; src } ->
      Format.fprintf fmt "%s %s" (if signed then "idiv" else "div") (r src)
  | Div_rrr { signed; dst; a; b } ->
      Format.fprintf fmt "%s %s, %s, %s" (if signed then "sdiv" else "udiv")
        (r dst) (r a) (r b)
  | Msub { dst; a; b; c } ->
      Format.fprintf fmt "msub %s, %s, %s, %s" (r dst) (r a) (r b) (r c)
  | Crc32_rr (d, s) -> Format.fprintf fmt "crc32 %s, %s" (r d) (r s)
  | Crc32_rrr (d, a, b) ->
      Format.fprintf fmt "crc32cx %s, %s, %s" (r d) (r a) (r b)
  | Setcc (c, d) -> Format.fprintf fmt "set%s %s" (cond_name c) (r d)
  | Csel { cond; dst; a; b } ->
      Format.fprintf fmt "csel.%s %s, %s, %s" (cond_name cond) (r dst) (r a)
        (r b)
  | Jmp off -> Format.fprintf fmt "jmp .+%d" off
  | Jcc (c, off) -> Format.fprintf fmt "j%s .+%d" (cond_name c) off
  | Jmp_ind reg -> Format.fprintf fmt "jmp *%s" (r reg)
  | Jmp_mem addr -> Format.fprintf fmt "jmp [0x%Lx]" addr
  | Call_rel off -> Format.fprintf fmt "call .+%d" off
  | Call_ind reg -> Format.fprintf fmt "call *%s" (r reg)
  | Ret -> Format.fprintf fmt "ret"
  | Falu_rr (op, d, s) ->
      let n = match op with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv" in
      Format.fprintf fmt "%s %s, %s" n (r d) (r s)
  | Falu_rrr (op, d, a, b) ->
      let n = match op with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv" in
      Format.fprintf fmt "%s %s, %s, %s" n (r d) (r a) (r b)
  | Fcmp_rr (a, b) -> Format.fprintf fmt "fcmp %s, %s" (r a) (r b)
  | Cvt_si2f (d, s) -> Format.fprintf fmt "scvtf %s, %s" (r d) (r s)
  | Cvt_f2si (d, s) -> Format.fprintf fmt "fcvtzs %s, %s" (r d) (r s)
  | Brk code -> Format.fprintf fmt "brk #%d" code

(* ------------------------------------------------------------------ *)
(* Register-operand structure, shared by every back-end that runs a
   register allocator over these instructions. *)

(** (defs, uses) of an instruction, physical and virtual alike. *)
let defs_uses (i : t) : int list * int list =
  match i with
  | Nop | Ret | Brk _ | Jmp _ | Jcc _
  | Jmp_mem _ | Call_rel _ ->
      ([], [])
  | Mov_rr (d, s) -> ([ d ], [ s ])
  | Mov_ri (d, _) | Movz (d, _, _) -> ([ d ], [])
  | Movk (d, _, _) -> ([ d ], [ d ])
  | Alu_rr (_, d, s) -> ([ d ], [ d; s ])
  | Alu_ri (_, d, _) -> ([ d ], [ d ])
  | Alu_rrr (_, d, a, b) -> ([ d ], [ a; b ])
  | Alu_rri (_, d, a, _) -> ([ d ], [ a ])
  | Cmp_rr (a, b) -> ([], [ a; b ])
  | Cmp_ri (a, _) -> ([], [ a ])
  | Ld { dst; base; _ } -> ([ dst ], [ base ])
  | St { src; base; _ } -> ([], [ src; base ])
  | Ldx { dst; base; index; _ } | Lea { dst; base; index; _ } ->
      ([ dst ], List.filter (fun r -> r >= 0) [ base; index ])
  | Ext { dst; src; _ } -> ([ dst ], [ src ])
  | Mul_wide { src; _ } -> ([ 0; 2 ], [ 0; src ])
  | Mul_hi { dst; a; b; _ } -> ([ dst ], [ a; b ])
  | Div { src; _ } -> ([ 0; 2 ], [ 0; 2; src ])
  | Div_rrr { dst; a; b; _ } -> ([ dst ], [ a; b ])
  | Msub { dst; a; b; c } -> ([ dst ], [ a; b; c ])
  | Crc32_rr (d, s) -> ([ d ], [ d; s ])
  | Crc32_rrr (d, a, b) -> ([ d ], [ a; b ])
  | Setcc (_, d) -> ([ d ], [])
  | Csel { dst; a; b; _ } -> ([ dst ], [ a; b ])
  | Jmp_ind r | Call_ind r -> ([], [ r ])
  | Falu_rr (_, d, s) -> ([ d ], [ d; s ])
  | Falu_rrr (_, d, a, b) -> ([ d ], [ a; b ])
  | Fcmp_rr (a, b) -> ([], [ a; b ])
  | Cvt_si2f (d, s) | Cvt_f2si (d, s) -> ([ d ], [ s ])

(* an optional register field: -1 stays absent *)
let opt m r = if r >= 0 then m r else -1

(** Rewrite all register fields through [m]. *)
let map_regs m (i : t) : t =
  match i with
  | Nop | Ret | Brk _ | Jmp _ | Jcc _
  | Jmp_mem _ | Call_rel _ | Mov_ri _ | Movz _
  | Movk _ ->
      (match i with
      | Mov_ri (d, v) -> Mov_ri (m d, v)
      | Movz (d, v, s) -> Movz (m d, v, s)
      | Movk (d, v, s) -> Movk (m d, v, s)
      | other -> other)
  | Mov_rr (d, s) -> Mov_rr (m d, m s)
  | Alu_rr (op, d, s) -> Alu_rr (op, m d, m s)
  | Alu_ri (op, d, v) -> Alu_ri (op, m d, v)
  | Alu_rrr (op, d, a, b) -> Alu_rrr (op, m d, m a, m b)
  | Alu_rri (op, d, a, v) -> Alu_rri (op, m d, m a, v)
  | Cmp_rr (a, b) -> Cmp_rr (m a, m b)
  | Cmp_ri (a, v) -> Cmp_ri (m a, v)
  | Ld r -> Ld { r with dst = m r.dst; base = m r.base }
  | St r -> St { r with src = m r.src; base = m r.base }
  | Ldx r -> Ldx { r with dst = m r.dst; base = opt m r.base; index = m r.index }
  | Lea r -> Lea { r with dst = m r.dst; base = opt m r.base; index = opt m r.index }
  | Ext r -> Ext { r with dst = m r.dst; src = m r.src }
  | Mul_wide r -> Mul_wide { r with src = m r.src }
  | Mul_hi r -> Mul_hi { r with dst = m r.dst; a = m r.a; b = m r.b }
  | Div r -> Div { r with src = m r.src }
  | Div_rrr r -> Div_rrr { r with dst = m r.dst; a = m r.a; b = m r.b }
  | Msub r -> Msub { dst = m r.dst; a = m r.a; b = m r.b; c = m r.c }
  | Crc32_rr (d, s) -> Crc32_rr (m d, m s)
  | Crc32_rrr (d, a, b) -> Crc32_rrr (m d, m a, m b)
  | Setcc (c, d) -> Setcc (c, m d)
  | Csel r -> Csel { r with dst = m r.dst; a = m r.a; b = m r.b }
  | Jmp_ind r -> Jmp_ind (m r)
  | Call_ind r -> Call_ind (m r)
  | Falu_rr (op, d, s) -> Falu_rr (op, m d, m s)
  | Falu_rrr (op, d, a, b) -> Falu_rrr (op, m d, m a, m b)
  | Fcmp_rr (a, b) -> Fcmp_rr (m a, m b)
  | Cvt_si2f (d, s) -> Cvt_si2f (m d, m s)
  | Cvt_f2si (d, s) -> Cvt_f2si (m d, m s)

let is_call = function
  | Call_ind _ | Call_rel _ -> true
  | _ -> false
