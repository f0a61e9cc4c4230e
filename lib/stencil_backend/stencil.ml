(** Copy-and-patch back-end: the fastest-compiling native rung on the tier
    ladder (Xu & Kjolstad, OOPSLA 2021 — see PAPERS.md).

    A stencil library is built once per process: one position-independent
    code fragment per IR op shape, encoded through the ordinary {!Asm}
    encoder with typed holes (stack-slot displacements, 64-bit constants,
    branch targets, runtime-symbol addresses) recorded at fixed byte
    offsets. Per-query "compilation" walks the lowered module, blits the
    stencil bytes for each instruction into the code buffer and patches
    the holes — no instruction selection, no register allocation, no
    encoding work on the per-query path.

    Value discipline: every IR instruction owns a fixed sp-relative stack
    slot at a fixed 32-byte stride (value at [32*v], phi staging at
    [32*v + 16]), so the frame size is a shift of the instruction count,
    every slot address is a shift of the value id, and no slot-assignment
    prescan runs at all. Stencils load their operands from slots into a
    fixed set of caller-saved registers, compute, and leave a scalar
    result in rax. One accumulator register survives a stencil boundary:
    the blitter tracks which value rax holds and, when the next stencil
    reads that value, picks a variant that takes the operand in rax
    instead of reloading its slot. When that read is the value's only
    use, the defining stencil's "no-store" variant skips the slot store
    altogether. The tracked value is forgotten at every bound label,
    after runtime calls and i128 stencils, so every fragment is still
    position-independent and only ever relies on straight-line state.

    Runtime addresses are never baked: calls go through [Abs64]
    relocations resolved at {!Qcomp_backend.Backend.link_artifact} time,
    so stencil artifacts are fully relocatable and snapshot/restore
    ([serve --save-cache]/[--load-cache]) works unchanged.

    x86-64 only: the A64 encoder expands wide immediates and large
    offsets into value-dependent instruction sequences, so holes have no
    fixed positions there (the same reason DirectEmit is x86-64-only). *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm

let name = "stencil"

(** Version of the stencil library itself. Bump whenever a stencil's byte
    layout or hole protocol changes: it is folded into the snapshot key
    ({!Qcomp_server.Fingerprint.key_v}) so a code cache written against an
    older library is rejected at load instead of mis-patched. *)
let library_version = 2

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Stencil representation                                              *)

(** A typed hole: byte offset within the stencil, and the index of the
    value that fills it at instantiation time. *)
type hole =
  | H32 of int * int  (** 4-byte LE int at [off], from the ints array *)
  | H64 of int * int  (** 8-byte LE int at [off], from the i64 arguments *)
  | Htgt of int * int  (** rel32 branch field at [off], label index *)
  | Hsym of int * int  (** abs64 runtime address at [off], symbol index *)

(* The instantiation loop is the hottest code in the back-end, and almost
   every hole is an [H32], so those are pre-split into a flat int array
   ([off lsl 3 lor arg]; offsets are tens of bytes and arities <= 7, so
   the packing is exact) and patched without a per-hole tag dispatch.
   Everything else stays as structured holes on the slow side. *)
type stencil = {
  s_code : Bytes.t;
      (** padded to >= 64 bytes and to a multiple of 8 so instantiation
          can copy in branch-free 8-byte words without overreading *)
  s_len : int;  (** true code length *)
  s_h32 : int array;
  s_rest : hole array;
}

(** One key per op shape. Everything that changes the emitted bytes —
    opcode, operand width, condition, scale, constant shift amount — is
    part of the key; everything that only changes an immediate field is a
    hole. *)
type key =
  | Kprologue  (** sub sp, frame(h32) *)
  | Kepilogue  (** add sp, frame(h32); ret *)
  | Ktrap  (** call umbra_throwOverflow(hsym); brk 1 *)
  | Kconst of bool  (** mov imm64(h64) -> slot; [true]: both i128 lanes *)
  | Kisnull of bool  (** [true] = isnotnull *)
  | Kalu of Minst.alu * int  (** binop + canonicalization bits (0 = i64) *)
  | Kalu128 of Minst.alu  (** lane-wise add/adc, sub/sbb, and/or/xor *)
  | Kmul128
  | Kshift128 of Minst.alu * int  (** constant amount baked into the key *)
  | Kdiv of bool * bool * int  (** signed, want-remainder, canon bits *)
  | Kcmp of Minst.cond * bool  (** [true] = float compare *)
  | Kcmp128eq of bool  (** [true] = Ne *)
  | Kcmp128ord of Minst.cond * Minst.cond  (** unsigned-lo, strict-hi *)
  | Kzext of int * bool  (** source bits, widen-to-i128 *)
  | Ksext of bool  (** widen-to-i128 *)
  | Ktrunc of int  (** -1 = to i1 (and 1), else canon bits *)
  | Kselect of bool  (** i128 *)
  | Kload of int * bool * bool  (** size, sext, i128 *)
  | Kstore of int * bool  (** size, i128 *)
  | Kgep_base
  | Kgep of int  (** scale 1/2/4/8 -> lea *)
  | Kgep_mul  (** arbitrary scale: mul + add *)
  | Kcrc32
  | Klmf  (** longmulfold *)
  | Katomic of int  (** size *)
  | Kldarg of int  (** arg-reg k <- slot(h32), for calls *)
  | Kstarg of int  (** arg-reg k -> slot(h32), prologue spill *)
  | Kcall  (** mov r11, sym(hsym); call r11 *)
  | Kstret of int  (** ret-reg lane -> slot(h32) *)
  | Kastrap of bool * int  (** saddtrap/ssubtrap: is-sub, canon bits *)
  | Kastrap128 of bool
  | Kmultrap of int  (** canon bits (0 = i64) *)
  | Kmultrap128  (** always the umbra_i128MulFull helper *)
  | Kjmp
  | Kcondbr  (** ld cond; cmp 0; jcc eq -> else target *)
  | Kcondbr2  (** the phi-free fast path: jcc eq -> else; jmp -> then *)
  | Kcondbrnz  (** inverted: jcc ne -> then target, else falls through *)
  | Kcmpbr of Minst.cond * int
      (** integer compare fused with the branch on its result; the shape
          is that of [Kcondbr] (0), [Kcondbrnz] (1) or [Kcondbr2] (2) *)
  | Kprologue_args of int
      (** prologue fused with the spill of [n] scalar register arguments;
          arg slots are deterministically 0, 8, ..., so the stores need no
          holes at all *)
  | Kret of int  (** number of return lanes: 0, 1 or 2 *)
  | Kunreachable
  | Kfalu of Minst.falu
  | Kcvt of bool  (** [true] = si2f, else f2si *)
  | Kcopy of bool  (** slot-to-slot copy, [true] = 16 bytes *)

(* Fixed stencil registers — all caller-saved on the virtual x64 target,
   so no save/restore anywhere. Mul_wide and Div implicitly use rax/rdx. *)
let ra = 0 (* rax *)
let rc = 1 (* rcx *)
let rd = 2 (* rdx *)
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11

(* ------------------------------------------------------------------ *)
(* Dense key numbering. The per-query compiler resolves stencils through a
   flat array indexed by this code (see [fetch]) — a hash lookup per
   emitted stencil would be a meaningful fraction of the whole per-query
   compile. The strides below just need to keep the ranges disjoint. *)

let alu_idx : Minst.alu -> int = function
  | Minst.Add -> 0 | Minst.Sub -> 1 | Minst.Adc -> 2 | Minst.Sbb -> 3
  | Minst.And -> 4 | Minst.Or -> 5 | Minst.Xor -> 6 | Minst.Mul -> 7
  | Minst.Shl -> 8 | Minst.Shr -> 9 | Minst.Sar -> 10 | Minst.Ror -> 11

let cond_idx : Minst.cond -> int = function
  | Minst.Eq -> 0 | Minst.Ne -> 1 | Minst.Slt -> 2 | Minst.Sle -> 3
  | Minst.Sgt -> 4 | Minst.Sge -> 5 | Minst.Ult -> 6 | Minst.Ule -> 7
  | Minst.Ugt -> 8 | Minst.Uge -> 9 | Minst.Ov -> 10 | Minst.Noov -> 11

let falu_idx : Minst.falu -> int = function
  | Minst.Fadd -> 0 | Minst.Fsub -> 1 | Minst.Fmul -> 2 | Minst.Fdiv -> 3

(* canonicalization widths {0,1,8,16,32} and access sizes {1,2,4,8} *)
let bits_idx = function 0 -> 0 | 1 -> 1 | 8 -> 2 | 16 -> 3 | 32 -> 4 | _ -> assert false
let size_idx = function 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> assert false
let bit b = if b then 1 else 0

let key_code : key -> int = function
  | Kprologue -> 0
  | Kepilogue -> 1
  | Ktrap -> 2
  | Kconst b -> 3 + bit b
  | Kisnull b -> 5 + bit b
  | Kmul128 -> 7
  | Kgep_base -> 8
  | Kgep_mul -> 9
  | Kcrc32 -> 10
  | Klmf -> 11
  | Kcall -> 12
  | Kjmp -> 13
  | Kcondbr -> 14
  | Kcondbr2 -> 15
  | Kunreachable -> 16
  | Kmultrap128 -> 17
  | Ksext b -> 18 + bit b
  | Kselect b -> 20 + bit b
  | Kcopy b -> 22 + bit b
  | Kcvt b -> 24 + bit b
  | Kcmp128eq b -> 26 + bit b
  | Kstret lane -> 28 + lane
  | Kret n -> 30 + n
  | Kastrap128 b -> 33 + bit b
  | Ktrunc k -> 35 + (if k = -1 then 0 else 1 + bits_idx k)
  | Katomic size -> 41 + size_idx size
  | Kmultrap bits -> 45 + bits_idx bits
  | Kgep scale -> 50 + size_idx scale
  | Kldarg k -> 54 + k
  | Kstarg k -> 70 + k
  | Kastrap (sub, bits) -> 86 + (5 * bit sub) + bits_idx bits
  | Kzext (bits, to128) -> 96 + (5 * bit to128) + bits_idx bits
  | Kload (size, sext, i128) -> 106 + (4 * size_idx size) + (2 * bit sext) + bit i128
  | Kstore (size, i128) -> 122 + (2 * size_idx size) + bit i128
  | Kdiv (s, r, bits) -> 130 + (5 * ((2 * bit s) + bit r)) + bits_idx bits
  | Kalu (op, bits) -> 150 + (5 * alu_idx op) + bits_idx bits
  | Kalu128 op -> 210 + alu_idx op
  | Kfalu op -> 222 + falu_idx op
  | Kcmp (c, fl) -> 226 + (2 * cond_idx c) + bit fl
  | Kcmp128ord (u, hi) -> 250 + (12 * cond_idx u) + cond_idx hi
  | Kshift128 (op, amt) -> 394 + (128 * (alu_idx op - 8)) + amt
  | Kcondbrnz -> 394 + (128 * 3)
  | Kprologue_args n -> 394 + (128 * 3) + n  (* n in 1..8 *)
  | Kcmpbr (c, shape) -> 394 + (128 * 3) + 9 + (3 * cond_idx c) + shape

let nkeys = 394 + (128 * 3) + 9 + (3 * 12)

(* Register-forwarding variants: every key exists in [nvariants] versions,
   at the variant codes [key_code k lsl 3 + v], so the variants of one
   key sit side by side in every code-indexed table. Bits 0-1 of [v]
   hold 1 + the slot hole whose operand arrives in rax instead of being
   loaded (0 = none); bit 2 marks the no-store variant, which leaves its
   result in rax only. Variant 0 is the plain stencil. *)
let nvariants = 8
let ncodes = nkeys * nvariants
let vcode k = key_code k lsl 3
let[@inline] variant fwd nostore = fwd + 1 + if nostore then 4 else 0

let all_alus =
  Minst.[| Add; Sub; Adc; Sbb; And; Or; Xor; Mul; Shl; Shr; Sar; Ror |]

let all_conds =
  Minst.[| Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge; Ov; Noov |]

let all_bits = [| 0; 1; 8; 16; 32 |]
let all_sizes = [| 1; 2; 4; 8 |]

(* The per-query walk deals in variant codes only: the tables below map
   each parametric family straight to its plain variant's code (one
   small-array probe instead of a [key] allocation plus the [key_code]
   match per emission), and the [kc_*] constants cover the non-parametric
   shapes. [key_of_code] is the inverse, consulted only on the cold
   library-miss path. Everything is derived through [key_code], so the
   numbering lives in one place. *)

let kalu_tbl =
  Array.init 60 (fun c -> vcode (Kalu (all_alus.(c / 5), all_bits.(c mod 5))))

let kalu a b = Array.unsafe_get kalu_tbl ((alu_idx a * 5) + bits_idx b)
let kalu128_tbl = Array.init 12 (fun c -> vcode (Kalu128 all_alus.(c)))
let kalu128 a = Array.unsafe_get kalu128_tbl (alu_idx a)

let kcmp_tbl =
  Array.init 24 (fun c -> vcode (Kcmp (all_conds.(c / 2), c land 1 = 1)))

let kcmp c fl = Array.unsafe_get kcmp_tbl ((cond_idx c * 2) + bit fl)

let kcmp128ord_tbl =
  Array.init 144 (fun c ->
      vcode (Kcmp128ord (all_conds.(c / 12), all_conds.(c mod 12))))

let kcmp128ord u hi = Array.unsafe_get kcmp128ord_tbl ((cond_idx u * 12) + cond_idx hi)
let kcmp128eq_tbl = [| vcode (Kcmp128eq false); vcode (Kcmp128eq true) |]
let kcmp128eq ne = Array.unsafe_get kcmp128eq_tbl (bit ne)

let kzext_tbl =
  Array.init 10 (fun c -> vcode (Kzext (all_bits.(c mod 5), c >= 5)))

let kzext bits to128 = Array.unsafe_get kzext_tbl ((5 * bit to128) + bits_idx bits)

let ktrunc_tbl =
  Array.init 6 (fun c -> vcode (Ktrunc (if c = 0 then -1 else all_bits.(c - 1))))

let ktrunc k = Array.unsafe_get ktrunc_tbl (if k = -1 then 0 else 1 + bits_idx k)

let kload_tbl =
  Array.init 16 (fun c ->
      vcode (Kload (all_sizes.(c / 4), c land 2 = 2, c land 1 = 1)))

let kload size sext i128 =
  Array.unsafe_get kload_tbl ((4 * size_idx size) + (2 * bit sext) + bit i128)

let kstore_tbl =
  Array.init 8 (fun c -> vcode (Kstore (all_sizes.(c / 2), c land 1 = 1)))

let kstore size i128 = Array.unsafe_get kstore_tbl ((2 * size_idx size) + bit i128)
let kgep_tbl = Array.init 4 (fun c -> vcode (Kgep all_sizes.(c)))
let kgep scale = Array.unsafe_get kgep_tbl (size_idx scale)

let kdiv_tbl =
  Array.init 20 (fun c ->
      vcode (Kdiv (c >= 10, c / 5 land 1 = 1, all_bits.(c mod 5))))

let kdiv signed rem bits =
  Array.unsafe_get kdiv_tbl ((10 * bit signed) + (5 * bit rem) + bits_idx bits)

let kastrap_tbl =
  Array.init 10 (fun c -> vcode (Kastrap (c >= 5, all_bits.(c mod 5))))

let kastrap sub bits = Array.unsafe_get kastrap_tbl ((5 * bit sub) + bits_idx bits)
let kmultrap_tbl = Array.init 5 (fun c -> vcode (Kmultrap all_bits.(c)))
let kmultrap bits = Array.unsafe_get kmultrap_tbl (bits_idx bits)
let kldarg_tbl = Array.init 16 (fun k -> vcode (Kldarg k))
let kldarg k = Array.unsafe_get kldarg_tbl k
let kstarg_tbl = Array.init 16 (fun k -> vcode (Kstarg k))
let kstarg k = Array.unsafe_get kstarg_tbl k

let kfalu_tbl =
  Minst.[| vcode (Kfalu Fadd); vcode (Kfalu Fsub);
           vcode (Kfalu Fmul); vcode (Kfalu Fdiv) |]

let kfalu op = Array.unsafe_get kfalu_tbl (falu_idx op)
let kastrap128_tbl = [| vcode (Kastrap128 false); vcode (Kastrap128 true) |]
let kastrap128 sub = Array.unsafe_get kastrap128_tbl (bit sub)
let katomic_tbl = Array.init 4 (fun c -> vcode (Katomic all_sizes.(c)))
let katomic size = Array.unsafe_get katomic_tbl (size_idx size)

let kshift128_tbl =
  Array.init 384 (fun c ->
      vcode (Kshift128 (all_alus.(8 + (c / 128)), c mod 128)))

let kshift128 op amt = Array.unsafe_get kshift128_tbl ((128 * (alu_idx op - 8)) + amt)

let kprologue_args_tbl =
  Array.init 8 (fun i -> vcode (Kprologue_args (i + 1)))

let kprologue_args n = Array.unsafe_get kprologue_args_tbl (n - 1)

let kcmpbr_tbl =
  Array.init 36 (fun c -> vcode (Kcmpbr (all_conds.(c / 3), c mod 3)))

let kcmpbr c shape = Array.unsafe_get kcmpbr_tbl ((3 * cond_idx c) + shape)
let kc_prologue = vcode Kprologue
let kc_epilogue = vcode Kepilogue
let kc_trap = vcode Ktrap
let kc_const = vcode (Kconst false)
let kc_const128 = vcode (Kconst true)
let kc_isnull = vcode (Kisnull false)
let kc_isnotnull = vcode (Kisnull true)
let kc_mul128 = vcode Kmul128
let kc_multrap128 = vcode Kmultrap128
let kc_sext = vcode (Ksext false)
let kc_sext128 = vcode (Ksext true)
let kc_select = vcode (Kselect false)
let kc_select128 = vcode (Kselect true)
let kc_copy = vcode (Kcopy false)
let kc_copy128 = vcode (Kcopy true)
let kc_cvt_f2i = vcode (Kcvt false)
let kc_cvt_i2f = vcode (Kcvt true)
let kc_load128 = vcode (Kload (8, false, true))
let kc_store128 = vcode (Kstore (8, true))
let kc_gep_base = vcode Kgep_base
let kc_gep_mul = vcode Kgep_mul
let kc_crc32 = vcode Kcrc32
let kc_lmf = vcode Klmf
let kc_call = vcode Kcall
let kc_stret0 = vcode (Kstret 0)
let kc_stret1 = vcode (Kstret 1)
let kc_jmp = vcode Kjmp
let kc_condbr = vcode Kcondbr
let kc_condbrnz = vcode Kcondbrnz
let kc_condbr2 = vcode Kcondbr2
let kc_ret0 = vcode (Kret 0)
let kc_ret1 = vcode (Kret 1)
let kc_ret2 = vcode (Kret 2)
let kc_unreachable = vcode Kunreachable

(* base code -> key, for the library-miss path (and for enumerating the
   full shape population). Every base code is covered: the numbering is
   dense. *)
let key_of_code : key array =
  let a = Array.make nkeys Kprologue in
  let put k = a.(key_code k) <- k in
  List.iter put
    [ Kprologue; Kepilogue; Ktrap; Kmul128; Kgep_base; Kgep_mul; Kcrc32;
      Klmf; Kcall; Kjmp; Kcondbr; Kcondbr2; Kcondbrnz; Kunreachable;
      Kmultrap128 ];
  List.iter
    (fun b ->
      List.iter put
        [ Kconst b; Kisnull b; Ksext b; Kselect b; Kcopy b; Kcvt b;
          Kcmp128eq b; Kastrap128 b ])
    [ false; true ];
  put (Kstret 0);
  put (Kstret 1);
  for n = 0 to 2 do put (Kret n) done;
  List.iter (fun k -> put (Ktrunc k)) [ -1; 0; 1; 8; 16; 32 ];
  Array.iter (fun s -> put (Katomic s)) all_sizes;
  Array.iter (fun w -> put (Kmultrap w)) all_bits;
  Array.iter (fun s -> put (Kgep s)) all_sizes;
  for k = 0 to 15 do
    put (Kldarg k);
    put (Kstarg k)
  done;
  List.iter
    (fun sub -> Array.iter (fun w -> put (Kastrap (sub, w))) all_bits)
    [ false; true ];
  Array.iter
    (fun w ->
      put (Kzext (w, false));
      put (Kzext (w, true)))
    all_bits;
  Array.iter
    (fun sz ->
      List.iter
        (fun sx ->
          put (Kload (sz, sx, false));
          put (Kload (sz, sx, true)))
        [ false; true ];
      put (Kstore (sz, false));
      put (Kstore (sz, true)))
    all_sizes;
  List.iter
    (fun s ->
      List.iter
        (fun r -> Array.iter (fun w -> put (Kdiv (s, r, w))) all_bits)
        [ false; true ])
    [ false; true ];
  Array.iter
    (fun op ->
      Array.iter (fun w -> put (Kalu (op, w))) all_bits;
      put (Kalu128 op))
    all_alus;
  List.iter (fun op -> put (Kfalu op)) Minst.[ Fadd; Fsub; Fmul; Fdiv ];
  Array.iter
    (fun c ->
      put (Kcmp (c, false));
      put (Kcmp (c, true)))
    all_conds;
  Array.iter
    (fun u -> Array.iter (fun hi -> put (Kcmp128ord (u, hi))) all_conds)
    all_conds;
  List.iter
    (fun op -> for amt = 0 to 127 do put (Kshift128 (op, amt)) done)
    Minst.[ Shl; Shr; Sar ];
  for n = 1 to 8 do put (Kprologue_args n) done;
  Array.iter (fun c -> for shape = 0 to 2 do put (Kcmpbr (c, shape)) done) all_conds;
  a

(* ------------------------------------------------------------------ *)
(* Building one stencil: drive the ordinary encoder with placeholder
   immediates chosen to force the widest (fixed-size) encodings, and
   record each hole's byte offset. *)

type builder = { asm : Asm.t; mutable holes : hole list }

(* placeholders that force the i32 / i64 immediate forms *)
let wide32 = 0x7FFF_FFFFL
let wide64 = 0x7FFF_FFFF_FFFF_FFFFL

(* The slot holes a variant may take in rax instead (see [variant]), and
   whether the key leaves a scalar result in rax that a no-store variant
   may keep there. These are exactly the shapes the emitter asks for; the
   builder rejects any other combination. *)
let fwd_holes = function
  | Kisnull _ | Kzext _ | Ksext _ | Ktrunc _ | Kload _ | Kgep_base | Kcondbr
  | Kcondbr2 | Kcondbrnz | Kcvt _ | Kret 1 | Kstore (_, true) | Kldarg _
  | Kcopy false ->
      [ 0 ]
  | Kalu ((Minst.Add | Minst.Mul | Minst.And | Minst.Or | Minst.Xor), _)
  | Kastrap (false, _) | Kmultrap _ | Klmf | Kcmp (_, false) | Kcmpbr _ ->
      (* commutative (compares: mirrored), so the emitter swaps a
         right-hand rax operand onto hole 0 *)
      [ 0 ]
  | Kalu _ | Kastrap (true, _) | Kdiv _ | Kcmp (_, true) | Kgep _ | Kgep_mul
  | Kcrc32 | Katomic _ | Kfalu _ | Kstore (_, false) ->
      [ 0; 1 ]
  | Kselect false -> [ 0; 1; 2 ]
  | Kselect true -> [ 2 ]
  | _ -> []

let result_in_rax = function
  | Kconst false | Kisnull _ | Kalu _ | Kdiv _ | Kcmp _ | Kcmp128eq _
  | Kcmp128ord _ | Kzext (_, false) | Ksext false | Ktrunc _ | Kselect false
  | Kload (_, _, false) | Kgep_base | Kgep _ | Kgep_mul | Kcrc32 | Klmf
  | Katomic _ | Kastrap _ | Kmultrap _ | Kfalu _ | Kcvt _ ->
      true
  | _ -> false

let valid_variant key v =
  let fwd = (v land 3) - 1 and nostore = v land 4 <> 0 in
  (fwd < 0 || List.mem fwd (fwd_holes key)) && ((not nostore) || result_in_rax key)

let negate : Minst.cond -> Minst.cond = function
  | Minst.Eq -> Minst.Ne
  | Minst.Ne -> Minst.Eq
  | Minst.Slt -> Minst.Sge
  | Minst.Sge -> Minst.Slt
  | Minst.Sle -> Minst.Sgt
  | Minst.Sgt -> Minst.Sle
  | Minst.Ult -> Minst.Uge
  | Minst.Uge -> Minst.Ult
  | Minst.Ule -> Minst.Ugt
  | Minst.Ugt -> Minst.Ule
  | Minst.Ov -> Minst.Noov
  | Minst.Noov -> Minst.Ov

let build (target : Target.t) key v : stencil =
  if not (valid_variant key v) then
    invalid_arg (Printf.sprintf "stencil: no variant %d of key %d" v (key_code key));
  let fwd = (v land 3) - 1 and nostore = v land 4 <> 0 in
  let b = { asm = Asm.create target; holes = [] } in
  let e i = Asm.emit b.asm i in
  let h x = b.holes <- x :: b.holes in
  let off () = Asm.offset b.asm in
  let sp = target.Target.sp in
  let args = target.Target.arg_regs in
  let rets = target.Target.ret_regs in
  (* slot load/store: Ld/St always carry a 4-byte displacement at +2 *)
  let ld_slot reg a =
    let o = off () in
    e (Minst.Ld { dst = reg; base = sp; off = 0; size = 8; sext = false });
    h (H32 (o + 2, a))
  in
  (* the leading operand loads of a stencil; the forwarded operand is
     already in rax, so it is moved to its register first (before any
     other load can overwrite rax) or, if that register is rax, skipped *)
  let lds regs =
    List.iteri (fun a reg -> if a = fwd && reg <> ra then e (Minst.Mov_rr (reg, ra))) regs;
    List.iteri (fun a reg -> if a <> fwd then ld_slot reg a) regs
  in
  let ld reg a =
    if a = fwd then invalid_arg "stencil: forwarded operand outside the leading loads";
    ld_slot reg a
  in
  let st reg a =
    let o = off () in
    e (Minst.St { src = reg; base = sp; off = 0; size = 8 });
    h (H32 (o + 2, a))
  in
  (* the stencil's scalar result, always computed into rax: the no-store
     variant keeps it there for the next stencil *)
  let st_res a = if not nostore then st ra a in
  (* memory access through a pointer register, displacement hole *)
  let ldm reg base ~size ~sext a =
    let o = off () in
    e (Minst.Ld { dst = reg; base; off = 0; size; sext });
    h (H32 (o + 2, a))
  in
  let stm reg base ~size a =
    let o = off () in
    e (Minst.St { src = reg; base; off = 0; size });
    h (H32 (o + 2, a))
  in
  let imm64 reg a =
    let o = off () in
    e (Minst.Mov_ri (reg, wide64));
    h (H64 (o + 2, a))
  in
  let sym64 reg a =
    let o = off () in
    e (Minst.Mov_ri (reg, wide64));
    h (Hsym (o + 2, a))
  in
  let alu32 op reg a =
    let o = off () in
    e (Minst.Alu_ri (op, reg, wide32));
    h (H32 (o + 2, a))
  in
  let jmp_t a =
    let o = off () in
    e (Minst.Jmp 0);
    h (Htgt (o + 1, a))
  in
  let jcc_t cond a =
    let o = off () in
    e (Minst.Jcc (cond, 0));
    h (Htgt (o + 1, a))
  in
  let canon reg bits =
    if bits <> 0 then e (Minst.Ext { dst = reg; src = reg; bits; signed = true })
  in
  let shift_i amt = Int64.of_int amt in
  (match key with
  | Kprologue -> alu32 Minst.Sub sp 0
  | Kprologue_args n ->
      alu32 Minst.Sub sp 0;
      (* argument slots sit at the fixed 32-byte stride of the frame layout
         (see [compile_func]), so the store offsets are baked into the
         stencil and need no holes *)
      for k = 0 to n - 1 do
        e (Minst.St { src = args.(k); base = sp; off = 32 * k; size = 8 })
      done
  | Kepilogue ->
      alu32 Minst.Add sp 0;
      e Minst.Ret
  | Ktrap ->
      sym64 r11 0;
      e (Minst.Call_ind r11);
      e (Minst.Brk 1)
  | Kconst false ->
      imm64 ra 0;
      st_res 0
  | Kconst true ->
      imm64 ra 0;
      imm64 rc 1;
      st ra 0;
      st rc 1
  | Kisnull ne ->
      lds [ ra ];
      e (Minst.Cmp_ri (ra, 0L));
      e (Minst.Setcc ((if ne then Minst.Ne else Minst.Eq), ra));
      st_res 1
  | Kalu (op, bits) ->
      (* also covers shifts: the register ALU form shares alu_eval with the
         immediate form, so constant amounts just come from their slot *)
      lds [ ra; rc ];
      e (Minst.Alu_rr (op, ra, rc));
      canon ra bits;
      st_res 2
  | Kalu128 op ->
      lds [ ra; rc; r8; r9 ];
      (match op with
      | Minst.Add ->
          (* lo then hi back-to-back: the carry flag must survive *)
          e (Minst.Alu_rr (Minst.Add, ra, rc));
          e (Minst.Alu_rr (Minst.Adc, r8, r9))
      | Minst.Sub ->
          e (Minst.Alu_rr (Minst.Sub, ra, rc));
          e (Minst.Alu_rr (Minst.Sbb, r8, r9))
      | op ->
          e (Minst.Alu_rr (op, ra, rc));
          e (Minst.Alu_rr (op, r8, r9)));
      st ra 4;
      st r8 5
  | Kmul128 ->
      (* truncated 128x128 multiply, exactly DirectEmit's sequence:
         rdx:rax = xlo *u ylo; rdx += xhi*ylo + xlo*yhi *)
      lds [ ra; rc; r8; r9 ];
      e (Minst.Mov_rr (r11, ra));
      e (Minst.Mul_wide { signed = false; src = rc });
      e (Minst.Mov_rr (r10, r8));
      e (Minst.Alu_rr (Minst.Mul, r10, rc));
      e (Minst.Alu_rr (Minst.Add, rd, r10));
      e (Minst.Mov_rr (r10, r11));
      e (Minst.Alu_rr (Minst.Mul, r10, r9));
      e (Minst.Alu_rr (Minst.Add, rd, r10));
      st ra 4;
      st rd 5
  | Kshift128 (op, amt) ->
      (* holes: 0 = x.lo, 1 = x.hi, 2 = d.lo, 3 = d.hi *)
      if amt = 0 then begin
        lds [ ra; rc ];
        st ra 2;
        st rc 3
      end
      else if amt >= 64 then begin
        match op with
        | Minst.Shr | Minst.Sar ->
            ld rc 1;
            e (Minst.Mov_rr (ra, rc));
            if amt > 64 then e (Minst.Alu_ri (op, ra, shift_i (amt - 64)));
            (if op = Minst.Shr then e (Minst.Mov_ri (rd, 0L))
             else begin
               e (Minst.Mov_rr (rd, rc));
               e (Minst.Alu_ri (Minst.Sar, rd, 63L))
             end);
            st ra 2;
            st rd 3
        | Minst.Shl ->
            ld ra 0;
            e (Minst.Mov_rr (rd, ra));
            if amt > 64 then e (Minst.Alu_ri (Minst.Shl, rd, shift_i (amt - 64)));
            e (Minst.Mov_ri (rc, 0L));
            st rc 2;
            st rd 3
        | _ -> unsupported "i128 rotate"
      end
      else begin
        match op with
        | Minst.Shr | Minst.Sar ->
            lds [ ra; rc ];
            e (Minst.Alu_ri (Minst.Shr, ra, shift_i amt));
            e (Minst.Mov_rr (r10, rc));
            e (Minst.Alu_ri (Minst.Shl, r10, shift_i (64 - amt)));
            e (Minst.Alu_rr (Minst.Or, ra, r10));
            e (Minst.Mov_rr (rd, rc));
            e (Minst.Alu_ri (op, rd, shift_i amt));
            st ra 2;
            st rd 3
        | Minst.Shl ->
            lds [ ra; rc ];
            e (Minst.Mov_rr (rd, rc));
            e (Minst.Alu_ri (Minst.Shl, rd, shift_i amt));
            e (Minst.Mov_rr (r10, ra));
            e (Minst.Alu_ri (Minst.Shr, r10, shift_i (64 - amt)));
            e (Minst.Alu_rr (Minst.Or, rd, r10));
            e (Minst.Alu_ri (Minst.Shl, ra, shift_i amt));
            st ra 2;
            st rd 3
        | _ -> unsupported "i128 rotate"
      end
  | Kdiv (signed, rem, bits) ->
      lds [ ra; rc ];
      (if signed then begin
         e (Minst.Mov_rr (rd, ra));
         e (Minst.Alu_ri (Minst.Sar, rd, 63L))
       end
       else e (Minst.Mov_ri (rd, 0L)));
      e (Minst.Div { signed; src = rc });
      (* the remainder comes back in rdx; canonicalization moves it *)
      if rem then
        e (if bits <> 0 then Minst.Ext { dst = ra; src = rd; bits; signed = true }
           else Minst.Mov_rr (ra, rd))
      else canon ra bits;
      st_res 2
  | Kcmp (cond, fl) ->
      lds [ ra; rc ];
      e (if fl then Minst.Fcmp_rr (ra, rc) else Minst.Cmp_rr (ra, rc));
      e (Minst.Setcc (cond, ra));
      st_res 2
  | Kcmp128eq ne ->
      lds [ ra; rc; r8; r9 ];
      e (Minst.Cmp_rr (ra, rc));
      e (Minst.Setcc (Minst.Eq, r10));
      e (Minst.Cmp_rr (r8, r9));
      e (Minst.Setcc (Minst.Eq, ra));
      e (Minst.Alu_rr (Minst.And, ra, r10));
      if ne then e (Minst.Alu_ri (Minst.Xor, ra, 1L));
      st_res 4
  | Kcmp128ord (u, hi) ->
      (* the hi words decide unless equal; the lo words compare unsigned *)
      lds [ ra; rc; r8; r9 ];
      e (Minst.Cmp_rr (ra, rc));
      e (Minst.Setcc (u, r10));
      e (Minst.Cmp_rr (r8, r9));
      e (Minst.Setcc (hi, ra));
      e (Minst.Csel { cond = Minst.Ne; dst = ra; a = ra; b = r10 });
      st_res 4
  | Kzext (bits, to128) ->
      lds [ ra ];
      if bits <> 0 then e (Minst.Ext { dst = ra; src = ra; bits; signed = false });
      if to128 then begin
        st ra 1;
        e (Minst.Mov_ri (rc, 0L));
        st rc 2
      end
      else st_res 1
  | Ksext to128 ->
      (* sources are canonical (sign-extended): the low lane is a copy *)
      lds [ ra ];
      if to128 then begin
        st ra 1;
        e (Minst.Mov_rr (rc, ra));
        e (Minst.Alu_ri (Minst.Sar, rc, 63L));
        st rc 2
      end
      else st_res 1
  | Ktrunc k ->
      lds [ ra ];
      (match k with
      | -1 -> e (Minst.Alu_ri (Minst.And, ra, 1L))
      | 0 -> ()
      | bits -> canon ra bits);
      st_res 1
  | Kselect false ->
      (* holes: 0 = then-value, 1 = else-value, 2 = condition, 3 = dst *)
      lds [ ra; rc; rd ];
      e (Minst.Cmp_ri (rd, 0L));
      e (Minst.Csel { cond = Minst.Ne; dst = ra; a = ra; b = rc });
      st_res 3
  | Kselect true ->
      (* cmov does not write flags, so one compare serves both lanes *)
      lds [ ra; rc; rd; r8; r9 ];
      e (Minst.Cmp_ri (rd, 0L));
      e (Minst.Csel { cond = Minst.Ne; dst = ra; a = ra; b = rc });
      e (Minst.Csel { cond = Minst.Ne; dst = r8; a = r8; b = r9 });
      st ra 5;
      st r8 6
  | Kload (size, sext, false) ->
      lds [ ra ];
      ldm ra ra ~size ~sext 1;
      st_res 2
  | Kload (_, _, true) ->
      lds [ ra ];
      ldm rc ra ~size:8 ~sext:false 1;
      ldm rd ra ~size:8 ~sext:false 2;
      st rc 3;
      st rd 4
  | Kstore (size, false) ->
      (* rax still holds the address afterwards *)
      lds [ ra; rc ];
      stm rc ra ~size 2
  | Kstore (_, true) ->
      lds [ ra; rc ];
      stm rc ra ~size:8 2;
      ld rd 3;
      stm rd ra ~size:8 4
  | Kgep_base ->
      lds [ ra ];
      let o = off () in
      e (Minst.Lea { dst = ra; base = ra; index = -1; scale = 1; off = 0 });
      h (H32 (o + 4, 1));
      st_res 2
  | Kgep scale ->
      lds [ ra; rc ];
      let o = off () in
      e (Minst.Lea { dst = ra; base = ra; index = rc; scale; off = 0 });
      h (H32 (o + 4, 2));
      st_res 3
  | Kgep_mul ->
      lds [ ra; rc ];
      alu32 Minst.Mul rc 2;
      e (Minst.Alu_rr (Minst.Add, ra, rc));
      alu32 Minst.Add ra 3;
      st_res 4
  | Kcrc32 ->
      lds [ ra; rc ];
      e (Minst.Crc32_rr (ra, rc));
      st_res 2
  | Klmf ->
      lds [ ra; rc ];
      e (Minst.Mul_wide { signed = false; src = rc });
      e (Minst.Alu_rr (Minst.Xor, ra, rd));
      st_res 2
  | Katomic size ->
      (* holes: 0 = address, 1 = addend; the old value is the result *)
      lds [ ra; rc ];
      e (Minst.Ld { dst = r10; base = ra; off = 0; size; sext = size < 8 });
      e (Minst.Alu_rr (Minst.Add, rc, r10));
      e (Minst.St { src = rc; base = ra; off = 0; size });
      e (Minst.Mov_rr (ra, r10));
      st_res 2
  | Kldarg k ->
      (* rax is not an argument register: loading arguments keeps it *)
      lds [ args.(k) ]
  | Kstarg k -> st args.(k) 0
  | Kcall ->
      sym64 r11 0;
      e (Minst.Call_ind r11)
  | Kstret lane -> st rets.(lane) 0
  | Kastrap (sub, 0) ->
      lds [ ra; rc ];
      e (Minst.Alu_rr ((if sub then Minst.Sub else Minst.Add), ra, rc));
      jcc_t Minst.Ov 0;
      st_res 2
  | Kastrap (sub, bits) ->
      (* narrow: the result must equal its own sign-extension, so past
         the check rax already holds the canonical value *)
      lds [ ra; rc ];
      e (Minst.Alu_rr ((if sub then Minst.Sub else Minst.Add), ra, rc));
      e (Minst.Ext { dst = r10; src = ra; bits; signed = true });
      e (Minst.Cmp_rr (r10, ra));
      jcc_t Minst.Ne 0;
      st_res 2
  | Kastrap128 sub ->
      lds [ ra; rc; r8; r9 ];
      (if sub then begin
         e (Minst.Alu_rr (Minst.Sub, ra, rc));
         e (Minst.Alu_rr (Minst.Sbb, r8, r9))
       end
       else begin
         e (Minst.Alu_rr (Minst.Add, ra, rc));
         e (Minst.Alu_rr (Minst.Adc, r8, r9))
       end);
      jcc_t Minst.Ov 0;
      st ra 4;
      st r8 5
  | Kmultrap 0 ->
      lds [ ra; rc ];
      e (Minst.Alu_rr (Minst.Mul, ra, rc));
      jcc_t Minst.Ov 0;
      st_res 2
  | Kmultrap bits ->
      lds [ ra; rc ];
      e (Minst.Alu_rr (Minst.Mul, ra, rc));
      e (Minst.Ext { dst = r10; src = ra; bits; signed = true });
      e (Minst.Cmp_rr (r10, ra));
      jcc_t Minst.Ne 0;
      st_res 2
  | Kmultrap128 ->
      (* the runtime helper computes the full product and raises the same
         overflow trap DirectEmit's slow path relies on, so going through
         it unconditionally is result- and trap-equivalent *)
      lds [ args.(0); args.(1); args.(2); args.(3) ];
      sym64 r11 0;
      e (Minst.Call_ind r11);
      st rets.(0) 4;
      st rets.(1) 5
  | Kjmp -> jmp_t 0
  | Kcondbr ->
      lds [ ra ];
      e (Minst.Cmp_ri (ra, 0L));
      jcc_t Minst.Eq 0
  | Kcondbrnz ->
      lds [ ra ];
      e (Minst.Cmp_ri (ra, 0L));
      jcc_t Minst.Ne 0
  | Kcondbr2 ->
      (* targets: 0 = else, 1 = then *)
      lds [ ra ];
      e (Minst.Cmp_ri (ra, 0L));
      jcc_t Minst.Eq 0;
      jmp_t 1
  | Kcmpbr (cond, shape) ->
      (* targets as for the unfused shapes; integer predicates negate
         exactly *)
      lds [ ra; rc ];
      e (Minst.Cmp_rr (ra, rc));
      if shape = 1 then jcc_t cond 0
      else begin
        jcc_t (negate cond) 0;
        if shape = 2 then jmp_t 1
      end
  | Kret 0 -> jmp_t 0
  | Kret 1 ->
      lds [ rets.(0) ];
      jmp_t 0
  | Kret _ ->
      lds [ rets.(0); rets.(1) ];
      jmp_t 0
  | Kunreachable -> e (Minst.Brk 0)
  | Kfalu op ->
      lds [ ra; rc ];
      e (Minst.Falu_rr (op, ra, rc));
      st_res 2
  | Kcvt si2f ->
      lds [ ra ];
      e (if si2f then Minst.Cvt_si2f (ra, ra) else Minst.Cvt_f2si (ra, ra));
      st_res 1
  | Kcopy false ->
      (* phi edge copies keep rax intact for the copies that follow *)
      if fwd = 0 then st ra 1
      else begin
        ld r11 0;
        st r11 1
      end
  | Kcopy true ->
      ld r11 0;
      st r11 1;
      ld r11 2;
      st r11 3);
  let holes = List.rev b.holes in
  let h32 =
    List.filter_map (function H32 (o, a) -> Some ((o lsl 3) lor a) | _ -> None) holes
  in
  let rest = List.filter (function H32 _ -> false | _ -> true) holes in
  let code = Asm.finish b.asm in
  let n = Bytes.length code in
  let padded = Bytes.make (max 64 ((n + 7) land -8)) '\000' in
  Bytes.blit code 0 padded 0 n;
  { s_code = padded; s_len = n; s_h32 = Array.of_list h32; s_rest = Array.of_list rest }

(* ------------------------------------------------------------------ *)
(* The library: a process-wide memoized table, keyed by variant code.
   Parallel serving workers (--domains) compile concurrently, hence the
   mutex. *)

let table : (int, stencil) Hashtbl.t = Hashtbl.create 1024
let table_mu = Mutex.create ()

let stencil_of target code =
  Mutex.protect table_mu (fun () ->
      match Hashtbl.find_opt table code with
      | Some s -> s
      | None ->
          let s = build target key_of_code.(code lsr 3) (code land 7) in
          Hashtbl.add table code s;
          s)

let library_size () = Mutex.protect table_mu (fun () -> Hashtbl.length table)

let dummy_stencil =
  { s_code = Bytes.create 64; s_len = 0; s_h32 = [||]; s_rest = [||] }

(* The x64 library as a dense array, filled by [prewarm]. Per-compilation
   caches start as a copy of this, so steady-state library access is one
   array probe with no hashing and no lock. *)
let dense_x64 = Array.make ncodes dummy_stencil

(* The flat library: every prewarmed stencil packed into one contiguous
   code pool with one metadata int per variant code. The per-stencil
   records above are several hundred scattered heap objects (record, code
   bytes, hole array); at one stencil instantiation every few dozen ns
   that working set misses L1 constantly. The flat form is contiguous
   and densely packed (about 17 kB of code), so the steady-state emit
   path reads only packed arrays.

   Metadata packing (bit 0 set = present):
     bits 1-3   H32 hole count (max arity is 7)
     bit 4      has other holes (consult [fl_rest])
     bits 5-20  start index into [fl_h32] (the prewarmed library holds
                over a thousand H32 holes; 16 bits leave ample room)
     bits 21-30 true code length in bytes
     bit 31     has one H64 hole, filled from i64 argument 0 (the
                scalar constant stencils: a quarter of all emissions)
     bits 32-36 that H64 hole's byte offset, or the Htgt hole's
     bit 37     has one Htgt hole, to target argument 0 (jumps, returns,
                overflow checks: a sixth of all emissions)
     bits 38-.. byte offset into [fl_pool]
   A stencil that does not fit this packing keeps a zero word and goes
   through the slow record path instead. *)
type flat = {
  fl_pool : Bytes.t;  (** concatenated padded stencil code *)
  fl_meta : int array;  (** variant code -> packed word, 0 = not present *)
  fl_h32 : int array;  (** packed H32 holes, [off lsl 3 lor arg] *)
  fl_rest : hole array array;  (** variant code -> non-H32 holes *)
}

let[@inline] fl_count w = (w lsr 1) land 7
let[@inline] fl_has_rest w = w land 16 <> 0
let[@inline] fl_h0 w = (w lsr 5) land 0xFFFF
let[@inline] fl_len w = (w lsr 21) land 0x3FF
let[@inline] fl_h64 w = if w land (1 lsl 31) <> 0 then (w lsr 32) land 31 else -1
let[@inline] fl_tgt w = if w land (1 lsl 37) <> 0 then (w lsr 32) land 31 else -1
let[@inline] fl_off w = w lsr 38

let fl_fits ~count ~h0 ~len = count <= 7 && h0 <= 0xFFFF && len <= 0x3FF

(* [h64] and [tgt] are the offsets of the single argument-0 H64 or Htgt
   hole, or -1; at most one of them is set *)
let fl_pack ~count ~rest ~h0 ~len ~h64 ~tgt ~off =
  1 lor (count lsl 1) lor (if rest then 16 else 0) lor (h0 lsl 5) lor (len lsl 21)
  lor (if h64 >= 0 then (1 lsl 31) lor (h64 lsl 32) else 0)
  lor (if tgt >= 0 then (1 lsl 37) lor (tgt lsl 32) else 0)
  lor (off lsl 38)

let empty_flat =
  { fl_pool = Bytes.create 64; fl_meta = Array.make ncodes 0;
    fl_h32 = [||]; fl_rest = Array.make ncodes [||] }

(* Written once by [prewarm] before any serving domain is spawned (the
   spawn provides the needed happens-before edge); read-only after. *)
let flat_x64 = ref empty_flat

(* Pool entries are packed at 8-byte granularity, not padded: [inst]
   copies whole 32- or 64-byte windows, and the bytes it picks up past a
   stencil's end (the next entries, or the 64 bytes of slack at the end
   of the pool) are overwritten or ignored like any tail garbage. *)
let pool_stride s = (s.s_len + 7) land -8

let flat_of codes =
  let entries = List.map (fun c -> (c, dense_x64.(c))) codes in
  let pool_len = List.fold_left (fun a (_, s) -> a + pool_stride s) 0 entries in
  let pool = Bytes.make (pool_len + 64) '\000' in
  let meta = Array.make ncodes 0 in
  let rest = Array.make ncodes [||] in
  let h32s = ref [] and nh32 = ref 0 in
  let off = ref 0 in
  List.iter
    (fun (c, s) ->
      let count = Array.length s.s_h32 and h0 = !nh32 in
      if fl_fits ~count ~h0 ~len:s.s_len then begin
        Bytes.blit s.s_code 0 pool !off s.s_len;
        Array.iter (fun p -> h32s := p :: !h32s; incr nh32) s.s_h32;
        let h64 = match s.s_rest with [| H64 (o, 0) |] when o < 32 -> o | _ -> -1 in
        let tgt = match s.s_rest with [| Htgt (o, 0) |] when o < 32 -> o | _ -> -1 in
        let has_rest = h64 < 0 && tgt < 0 && Array.length s.s_rest > 0 in
        if has_rest then rest.(c) <- s.s_rest;
        meta.(c) <- fl_pack ~count ~rest:has_rest ~h0 ~len:s.s_len ~h64 ~tgt ~off:!off;
        off := !off + pool_stride s
      end)
    entries;
  {
    fl_pool = pool;
    fl_meta = meta;
    fl_h32 = Array.of_list (List.rev !h32s);
    fl_rest = rest;
  }

(* The prewarmed population: the shapes the TPC-H/TPC-DS-like workloads
   use, each with every register-forwarding variant the emitter can ask
   for (see [fwd_holes] and [result_in_rax]). *)
let prewarm_codes : int list =
  let keys = ref [] in
  let get k = keys := k :: !keys in
  List.iter get [ Kprologue; Kepilogue; Ktrap; Kconst false; Kconst true ];
  List.iter get [ Kisnull false; Kisnull true ];
  let bits = [ 0; 8; 16; 32 ] in
  List.iter
    (fun op -> List.iter (fun w -> get (Kalu (op, w))) bits)
    Minst.[ Add; Sub; Mul; And; Or; Xor; Shl; Shr; Sar; Ror ];
  List.iter (fun op -> get (Kalu128 op)) Minst.[ Add; Sub; And; Or; Xor ];
  get Kmul128;
  List.iter
    (fun signed ->
      List.iter
        (fun rem -> List.iter (fun w -> get (Kdiv (signed, rem, w))) bits)
        [ false; true ])
    [ false; true ];
  List.iter
    (fun c ->
      get (Kcmp (c, false));
      get (Kcmp (c, true)))
    Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ];
  List.iter get [ Kcmp128eq false; Kcmp128eq true ];
  List.iter
    (fun (u, hi) -> get (Kcmp128ord (u, hi)))
    Minst.[ (Ult, Slt); (Ule, Slt); (Ugt, Sgt); (Uge, Sgt);
            (Ult, Ult); (Ule, Ult); (Ugt, Ugt); (Uge, Ugt) ];
  List.iter
    (fun w ->
      get (Kzext (w, false));
      get (Kzext (w, true)))
    [ 0; 1; 8; 16; 32 ];
  List.iter get [ Ksext false; Ksext true ];
  List.iter (fun k -> get (Ktrunc k)) [ -1; 0; 8; 16; 32 ];
  List.iter get [ Kselect false; Kselect true ];
  List.iter
    (fun size ->
      get (Kload (size, size < 8, false));
      get (Kstore (size, false)))
    [ 1; 2; 4; 8 ];
  get (Kload (1, false, false));
  get (Kload (8, false, true));
  get (Kstore (8, true));
  get Kgep_base;
  List.iter (fun s -> get (Kgep s)) [ 1; 2; 4; 8 ];
  get Kgep_mul;
  List.iter get [ Kcrc32; Klmf; Katomic 8; Katomic 4 ];
  for k = 0 to Array.length Target.x64.Target.arg_regs - 1 do
    get (Kldarg k);
    get (Kstarg k)
  done;
  List.iter get [ Kcall; Kstret 0; Kstret 1 ];
  List.iter
    (fun sub ->
      List.iter (fun w -> get (Kastrap (sub, w))) bits;
      get (Kastrap128 sub))
    [ false; true ];
  List.iter (fun w -> get (Kmultrap w)) bits;
  get Kmultrap128;
  List.iter get
    [ Kjmp; Kcondbr; Kcondbr2; Kcondbrnz; Kret 0; Kret 1; Kret 2; Kunreachable;
      Kcvt false; Kcvt true; Kcopy false; Kcopy true ];
  List.iter (fun op -> get (Kfalu op)) Minst.[ Fadd; Fsub; Fmul; Fdiv ];
  for n = 1 to min 8 (Array.length Target.x64.Target.arg_regs) do
    get (Kprologue_args n)
  done;
  List.iter
    (fun c -> for shape = 0 to 2 do get (Kcmpbr (c, shape)) done)
    Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ];
  List.concat_map
    (fun k ->
      List.filter_map
        (fun v -> if valid_variant k v then Some (vcode k + v) else None)
        (List.init nvariants Fun.id))
    (List.rev !keys)

let prewarm_mu = Mutex.create ()
let prewarmed = ref false

(** Build the prewarmed population into [dense_x64] and pack the flat
    library, once per process, so no query pays for library construction
    and later engine starts cost nothing. *)
let prewarm () =
  Mutex.protect prewarm_mu (fun () ->
      if not !prewarmed then begin
        List.iter (fun c -> dense_x64.(c) <- stencil_of Target.x64 c) prewarm_codes;
        flat_x64 := flat_of prewarm_codes;
        prewarmed := true
      end)

(* ------------------------------------------------------------------ *)
(* Per-query compilation: blit and patch.                              *)

type cbuf = { mutable bytes : Bytes.t; mutable len : int }

let cb_create () = { bytes = Bytes.create 4096; len = 0 }

let cb_grow cb n =
  let b = Bytes.create (max (cb.len + n) (2 * Bytes.length cb.bytes)) in
  Bytes.blit cb.bytes 0 b 0 cb.len;
  cb.bytes <- b

(* inline, so the per-stencil path makes no call (and spills nothing)
   unless the buffer really has to grow *)
let[@inline] cb_reserve cb n = if cb.len + n > Bytes.length cb.bytes then cb_grow cb n

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Stencils are a few dozen bytes; an inline word copy beats the C-call
   round trip of [Bytes.blit] at that size. [s_code] is padded, so the
   common case is a branch-free 64-byte copy with no loop-trip
   misprediction; longer stencils fall back to a word loop. Both may
   write up to 63 bytes of tail garbage past [s_len] into reserved
   slack, which the next emission (or the final [Bytes.sub]) ignores. *)
let cb_blit cb (s : stencil) =
  let n = s.s_len in
  cb_reserve cb (n + 64);
  let src = s.s_code in
  let dst = cb.bytes and base = cb.len in
  if n <= 64 then begin
    set64u dst base (get64u src 0);
    set64u dst (base + 8) (get64u src 8);
    set64u dst (base + 16) (get64u src 16);
    set64u dst (base + 24) (get64u src 24);
    set64u dst (base + 32) (get64u src 32);
    set64u dst (base + 40) (get64u src 40);
    set64u dst (base + 48) (get64u src 48);
    set64u dst (base + 56) (get64u src 56)
  end
  else begin
    let m = (n + 7) land -8 in
    let i = ref 0 in
    while !i < m do
      set64u dst (base + !i) (get64u src !i);
      i := !i + 8
    done
  end;
  cb.len <- base + n

(* all patch positions come from recorded hole offsets inside bytes the
   buffer just grew by, so the unchecked writes stay in bounds *)
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] patch32 cb pos v =
  if Sys.big_endian then Bytes.set_int32_le cb.bytes pos (Int32.of_int v)
  else set32u cb.bytes pos (Int32.of_int v)

let[@inline] patch64 cb pos v =
  if Sys.big_endian then Bytes.set_int64_le cb.bytes pos v
  else set64u cb.bytes pos v

type st = {
  cb : cbuf;
  target : Target.t;
  cache : stencil array;  (** key_code -> stencil, [dummy_stencil] = miss *)
  flat : flat;  (** the packed prewarmed library, [empty_flat] if none *)
  mutable relocs : Qcomp_backend.Artifact.reloc list;
  mutable stencils_used : int;
  mutable acc : int;
      (** the value rax holds between stencils, -1 = none; only ever a
          scalar, and only within one straight-line run of a block *)
  mutable fused : int;
      (** a compare left for the branch right after it to emit, -1 = none *)
  mutable hole_at : int;
  mutable hole_of : int;
  mutable hole : int;
      (** [rax_hole fn hole_at hole_of], which store elision computed for
          the next instruction; -1 in [hole_at] = none *)
  m : Func.modul;
  (* the function being compiled *)
  mutable fn : Func.t;
  mutable uses : int array;
      (** value [v]'s use count at [v + 1], see {!Func.count_uses} *)
  mutable has_phi : bool;
  mutable moves : int array;  (** edge-copy scratch, see [edge_copies] *)
  mutable blk_phis : int array array;
      (** block -> its phis, only gathered when [has_phi] *)
  mutable epilogue : int;  (** label *)
  mutable trap : int;  (** label of the shared overflow trap *)
  mutable trap_used : bool;
  (* shared argument scratch: [inst] patches every hole before returning,
     so one buffer per argument class serves all emissions without a
     fresh array per stencil *)
  ai : int array;
  at : int array;
  a64 : Bytes.t;
      (** i64 arguments, 8 bytes each: unboxed, so storing a constant
          costs no write barrier *)
}

(* x64 compilations share [dense_x64] directly: entries are only ever
   replaced by the identical stencil ([stencil_of] is memoized), so the
   lock-free shared writes in [fetch] are benign, including across
   parallel serving domains. *)
let cache_for (target : Target.t) =
  if target == Target.x64 then dense_x64
  else Array.make ncodes dummy_stencil

let flat_for (target : Target.t) =
  if target == Target.x64 then !flat_x64 else empty_flat

(* Library access on the per-query path: a flat array probe; only
   variants missing from the prewarmed set touch the shared table. *)
let[@inline] fetch st code =
  let s = Array.unsafe_get st.cache code in
  if s != dummy_stencil then s
  else begin
    let s = stencil_of st.target code in
    Array.unsafe_set st.cache code s;
    s
  end

let no_ints = [||]
let no_i64s = Bytes.empty
let no_tgts = [||]
let no_syms = [||]

(* Per-function label table: block b -> label b, then epilogue, trap,
   then locally allocated labels (condbr else-stubs). *)
type labels = {
  mutable offs : int array;  (** label -> buffer offset, -1 unbound *)
  mutable n : int;
  mutable fix : int array;
      (** branch fixups as pairs: rel32 field position, label *)
  mutable nfix : int;  (** pairs in use *)
}

let new_label ls =
  let l = ls.n in
  if l = Array.length ls.offs then begin
    let a = Array.make (2 * l) (-1) in
    Array.blit ls.offs 0 a 0 l;
    ls.offs <- a
  end;
  ls.n <- l + 1;
  l

let add_fixup ls pos l =
  let k = 2 * ls.nfix in
  if k + 2 > Array.length ls.fix then begin
    let a = Array.make (2 * (k + 2)) 0 in
    Array.blit ls.fix 0 a 0 k;
    ls.fix <- a
  end;
  Array.unsafe_set ls.fix k pos;
  Array.unsafe_set ls.fix (k + 1) l;
  ls.nfix <- ls.nfix + 1

(* Non-H32 holes and library misses are rare; handling them out of line
   keeps the hot instantiation path small. *)
let patch_rest st ls rest base i64s tgts syms =
  for hi = 0 to Array.length rest - 1 do
    match Array.unsafe_get rest hi with
    | H32 _ -> assert false
    | H64 (o, a) -> patch64 st.cb (base + o) (Bytes.get_int64_ne i64s (8 * a))
    | Htgt (o, a) -> add_fixup ls (base + o) (Array.unsafe_get tgts a)
    | Hsym (o, a) ->
        st.relocs <-
          {
            Qcomp_backend.Artifact.r_off = base + o;
            r_sym = Array.unsafe_get syms a;
            r_kind = Qcomp_backend.Artifact.Abs64;
          }
          :: st.relocs
  done

let inst_slow st ls code ints i64s tgts syms =
  let s = fetch st code in
  let base = st.cb.len in
  cb_blit st.cb s;
  let h32 = s.s_h32 in
  for hi = 0 to Array.length h32 - 1 do
    let p = Array.unsafe_get h32 hi in
    patch32 st.cb (base + (p lsr 3)) (Array.unsafe_get ints (p land 7))
  done;
  patch_rest st ls s.s_rest base i64s tgts syms;
  st.stencils_used <- st.stencils_used + 1

(* Positional on purpose: optional arguments would box a [Some] per call
   and force a generic apply; this is the hottest function in the
   back-end (once per emitted stencil). Reads only the flat library in
   the common case; every access below stays in ~20 kB of contiguous,
   read-only data. Every call it makes is a tail call (the library miss,
   the buffer growth, the rare holes), so the common path keeps its
   arguments in registers instead of saving them on entry. *)
let rec inst st ls code ints i64s tgts syms =
  let fl = st.flat in
  let w = Array.unsafe_get fl.fl_meta code in
  let cb = st.cb in
  let n = fl_len w in
  if w = 0 then inst_slow st ls code ints i64s tgts syms
  else if cb.len + n + 64 > Bytes.length cb.bytes then
    inst_grow st ls code ints i64s tgts syms
  else begin
    let off = fl_off w in
    let src = fl.fl_pool in
    let dst = cb.bytes and base = cb.len in
    if n <= 32 then begin
      (* most forwarding variants are a few instructions long *)
      set64u dst base (get64u src off);
      set64u dst (base + 8) (get64u src (off + 8));
      set64u dst (base + 16) (get64u src (off + 16));
      set64u dst (base + 24) (get64u src (off + 24))
    end
    else if n <= 64 then begin
      set64u dst base (get64u src off);
      set64u dst (base + 8) (get64u src (off + 8));
      set64u dst (base + 16) (get64u src (off + 16));
      set64u dst (base + 24) (get64u src (off + 24));
      set64u dst (base + 32) (get64u src (off + 32));
      set64u dst (base + 40) (get64u src (off + 40));
      set64u dst (base + 48) (get64u src (off + 48));
      set64u dst (base + 56) (get64u src (off + 56))
    end
    else begin
      let m = (n + 7) land -8 in
      let i = ref 0 in
      while !i < m do
        set64u dst (base + !i) (get64u src (off + !i));
        i := !i + 8
      done
    end;
    cb.len <- base + n;
    st.stencils_used <- st.stencils_used + 1;
    let hc = fl_count w in
    if hc <> 0 then begin
      let hp = fl.fl_h32 in
      let h0 = fl_h0 w in
      for hi = h0 to h0 + hc - 1 do
        let p = Array.unsafe_get hp hi in
        patch32 cb (base + (p lsr 3)) (Array.unsafe_get ints (p land 7))
      done
    end;
    if w land (1 lsl 31) <> 0 then
      patch64 cb (base + ((w lsr 32) land 31)) (Bytes.get_int64_ne i64s 0)
    else if w land (1 lsl 37) <> 0 then
      add_fixup ls (base + ((w lsr 32) land 31)) (Array.unsafe_get tgts 0)
    else if fl_has_rest w then
      patch_rest st ls (Array.unsafe_get fl.fl_rest code) base i64s tgts syms
  end

and inst_grow st ls code ints i64s tgts syms =
  cb_grow st.cb 64;
  inst st ls code ints i64s tgts syms

(* Parameter holes ride the const stencils: instantiate with a zeroed
   value, then record a [Param]/[Param_hi] relocation at each H64 hole so
   {!Qcomp_backend.Backend.link_artifact} patches the bound literal into
   the copy-and-patch hole. Always out of line — one hole per extracted
   literal is nowhere near the hot path. *)
let inst_param st code ints ~idx ~wide =
  let s = fetch st code in
  let base = st.cb.len in
  cb_blit st.cb s;
  let h32 = s.s_h32 in
  for hi = 0 to Array.length h32 - 1 do
    let p = Array.unsafe_get h32 hi in
    patch32 st.cb (base + (p lsr 3)) (Array.unsafe_get ints (p land 7))
  done;
  Array.iter
    (function
      | H64 (o, a) ->
          patch64 st.cb (base + o) 0L;
          st.relocs <-
            {
              Qcomp_backend.Artifact.r_off = base + o;
              r_sym = "";
              r_kind =
                (* const128 stencils order their i64 holes lo (a=0), hi
                   (a=1); the hi lane re-derives the sign at bind time *)
                (if wide && a = 1 then Qcomp_backend.Artifact.Param_hi idx
                 else Qcomp_backend.Artifact.Param idx);
            }
            :: st.relocs
      | H32 _ | Htgt _ | Hsym _ ->
          (* const stencils carry exactly slot-index H32 holes and value
             H64 holes *)
          assert false)
    s.s_rest;
  st.stencils_used <- st.stencils_used + 1

let[@inline] emitp1 st key p0 idx =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  inst_param st key ai ~idx ~wide:false

let[@inline] emitp2 st key p0 p1 idx =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  inst_param st key ai ~idx ~wide:true

(* Arity-specialized emit wrappers. Operands go into the shared scratch
   arrays in [st] instead of a fresh array per stencil; [inst] consumes
   its arguments before returning, so the reuse is safe. These live at
   toplevel on purpose: defining them inside [compile_func] would
   allocate two dozen closures per compiled function. *)
let[@inline] emit0 st ls key = inst st ls key no_ints no_i64s no_tgts no_syms
let[@inline] emits st ls key syms = inst st ls key no_ints no_i64s no_tgts syms
let[@inline] emitis st ls key ints syms = inst st ls key ints no_i64s no_tgts syms

let[@inline] emiti1 st ls key p0 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti2 st ls key p0 p1 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti3 st ls key p0 p1 p2 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti4 st ls key p0 p1 p2 p3 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set ai 3 p3;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti5 st ls key p0 p1 p2 p3 p4 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set ai 3 p3;
  Array.unsafe_set ai 4 p4;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti6 st ls key p0 p1 p2 p3 p4 p5 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set ai 3 p3;
  Array.unsafe_set ai 4 p4;
  Array.unsafe_set ai 5 p5;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emiti7 st ls key p0 p1 p2 p3 p4 p5 p6 =
  let ai = st.ai in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set ai 3 p3;
  Array.unsafe_set ai 4 p4;
  Array.unsafe_set ai 5 p5;
  Array.unsafe_set ai 6 p6;
  inst st ls key ai no_i64s no_tgts no_syms

let[@inline] emitc1 st ls key p0 v0 =
  let ai = st.ai and a64 = st.a64 in
  Array.unsafe_set ai 0 p0;
  Bytes.set_int64_ne a64 0 v0;
  inst st ls key ai a64 no_tgts no_syms

let[@inline] emitc2 st ls key p0 p1 v0 v1 =
  let ai = st.ai and a64 = st.a64 in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Bytes.set_int64_ne a64 0 v0;
  Bytes.set_int64_ne a64 8 v1;
  inst st ls key ai a64 no_tgts no_syms

let[@inline] emitt1 st ls key t0 =
  let at = st.at in
  Array.unsafe_set at 0 t0;
  inst st ls key no_ints no_i64s at no_syms

let[@inline] emit1t1 st ls key p0 t0 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set at 0 t0;
  inst st ls key ai no_i64s at no_syms

let[@inline] emit1t2 st ls key p0 t0 t1 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set at 0 t0;
  Array.unsafe_set at 1 t1;
  inst st ls key ai no_i64s at no_syms

let[@inline] emit2t1 st ls key p0 p1 t0 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set at 0 t0;
  inst st ls key ai no_i64s at no_syms

let[@inline] emit2t2 st ls key p0 p1 t0 t1 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set at 0 t0;
  Array.unsafe_set at 1 t1;
  inst st ls key ai no_i64s at no_syms

let[@inline] emit3t1 st ls key p0 p1 p2 t0 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set at 0 t0;
  inst st ls key ai no_i64s at no_syms

let[@inline] emit6t1 st ls key p0 p1 p2 p3 p4 p5 t0 =
  let ai = st.ai and at = st.at in
  Array.unsafe_set ai 0 p0;
  Array.unsafe_set ai 1 p1;
  Array.unsafe_set ai 2 p2;
  Array.unsafe_set ai 3 p3;
  Array.unsafe_set ai 4 p4;
  Array.unsafe_set ai 5 p5;
  Array.unsafe_set at 0 t0;
  inst st ls key ai no_i64s at no_syms

(* compare predicate ordinal ([Func.n] of a Cmp, see {!Op.cmp_of_int}) ->
   machine condition, one array probe *)
let cond_tbl = Minst.[| Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge |]
let[@inline] cond_of_pred p = cond_tbl.(p)

(* [Stdlib.max] is polymorphic: on the per-instruction path it would be a
   C call *)
let[@inline] int_max (a : int) b = if a >= b then a else b

let canon_bits (ty : Ty.t) =
  match ty with Ty.I8 -> 8 | Ty.I16 -> 16 | Ty.I32 -> 32 | _ -> 0

let alu_of_op (op : Op.t) : Minst.alu =
  match op with
  | Op.Add -> Minst.Add
  | Op.Sub -> Minst.Sub
  | Op.Mul -> Minst.Mul
  | Op.And -> Minst.And
  | Op.Or -> Minst.Or
  | Op.Xor -> Minst.Xor
  | Op.Shl -> Minst.Shl
  | Op.Lshr -> Minst.Shr
  | Op.Ashr -> Minst.Sar
  | Op.Rotr -> Minst.Ror
  | _ -> unsupported "not an ALU op"

let const_of f v =
  match Func.op f v with
  | Op.Const -> Some (Func.imm f v)
  | Op.Sext | Op.Zext -> (
      match Func.op f (Func.x f v) with
      | Op.Const -> Some (Func.imm f (Func.x f v))
      | _ -> None)
  | _ -> None

(* [x < y] iff [y > x]: integer compares take a right-hand rax operand by
   swapping their operands and mirroring the predicate *)
let mirror : Minst.cond -> Minst.cond = function
  | Minst.Slt -> Minst.Sgt
  | Minst.Sgt -> Minst.Slt
  | Minst.Sle -> Minst.Sge
  | Minst.Sge -> Minst.Sle
  | Minst.Ult -> Minst.Ugt
  | Minst.Ugt -> Minst.Ult
  | Minst.Ule -> Minst.Uge
  | Minst.Uge -> Minst.Ule
  | c -> c

(** [rax_hole f i v] is the slot hole through which instruction [i]'s
    stencil reads operand [v] when [v] is the value in rax, or -1 if [i]
    never takes [v] in rax. Commutative ops and integer compares take a
    right-hand operand through hole 0 by swapping. The emitter picks its
    variant from this, and store elision asks it about the next
    instruction, so a store is only ever dropped when the consumer really
    forwards. *)
let[@inline] rax_hole (f : Func.t) i v =
  let x = Array.unsafe_get f.Func.xs i and y = Array.unsafe_get f.Func.ys i in
  let tys = f.Func.tys in
  let scalar = Array.unsafe_get tys i != Ty.I128 in
  match Array.unsafe_get f.Func.ops i with
  | Op.Isnull | Op.Isnotnull | Op.Zext | Op.Sext | Op.Trunc | Op.Load | Op.Condbr
  | Op.Sitofp | Op.Fptosi | Op.Ret ->
      if x = v then 0 else -1
  | Op.Add | Op.Mul | Op.And | Op.Or | Op.Xor | Op.Saddtrap | Op.Smultrap
  | Op.Longmulfold ->
      if scalar && (x = v || y = v) then 0 else -1
  | Op.Sub | Op.Shl | Op.Lshr | Op.Ashr | Op.Rotr | Op.Ssubtrap | Op.Sdiv
  | Op.Udiv | Op.Srem | Op.Urem | Op.Crc32 | Op.Atomicadd | Op.Gep | Op.Fadd
  | Op.Fsub | Op.Fmul | Op.Fdiv | Op.Fcmp ->
      if not scalar then -1 else if x = v then 0 else if y = v then 1 else -1
  | Op.Cmp ->
      let xt = Array.unsafe_get tys x in
      if xt == Ty.I128 then -1
      else if x = v then 0
      else if y = v then if xt == Ty.F64 then 1 else 0
      else -1
  | Op.Select ->
      (* holes: 0 = then-value (y), 1 = else-value (z), 2 = condition (x) *)
      if scalar && y = v then 0
      else if scalar && Array.unsafe_get f.Func.zs i = v then 1
      else if x = v then 2
      else -1
  | Op.Store ->
      (* holes: 0 = address (y), 1 = value (x) *)
      if y = v then 0 else if x = v && Array.unsafe_get tys x != Ty.I128 then 1 else -1
  | _ -> -1

(* Use counts ({!Func.count_uses}) go into a domain-local scratch array:
   [Func.scratch] belongs to DirectEmit's analysis, and one memoized
   module may be compiled by two back-ends on two domains at once. *)
let scratch_uses = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

let ls_reset ls need =
  if Array.length ls.offs < need + 8 then ls.offs <- Array.make (need + 8) (-1)
  else
    (* a few dozen labels: a loop beats the C call of [Array.fill] *)
    for l = 0 to ls.n - 1 do
      Array.unsafe_set ls.offs l (-1)
    done;
  ls.n <- 0;
  ls.nfix <- 0

(* fixed-stride frame layout: value [v] lives at [32*v], its phi staging
   slot (parallel edge copies) at [32*v + 16]. Wasting the stride on void
   values trades a little scratch stack (modules peak well under the VM's
   256 KiB context stack) for skipping the slot-assignment prescan
   entirely: the frame is a shift of the instruction count, and a slot is
   a shift of the value id *)
let[@inline] s v = v lsl 5
let[@inline] stage v = (v lsl 5) + 16

(* The emitters below are toplevel functions over the per-function state
   in [st], so compiling a function allocates no closures: a dozen of
   them per function were a measurable share of the per-query compile. *)

let trap_l st =
  st.trap_used <- true;
  st.trap

(* a label may be reached from elsewhere: rax is unknown there *)
let bind st ls l =
  ls.offs.(l) <- st.cb.len;
  st.acc <- -1

(* a scalar copy whose source is the value in rax stores it directly;
   copies never write rax, so [acc] holds for every copy of the edge *)
let copy_from st src = if src = st.acc then kc_copy + variant 0 false else kc_copy

(* the copies for the edge from [pred] into a block with [phis], as
   (destination, source) pairs in [st.moves]: no lists, no closures *)
let edge_copies st ls pred phis =
  let f = st.fn in
  let tys = f.Func.tys in
  if Array.length st.moves < 2 * Array.length phis then
    st.moves <- Array.make (4 * Array.length phis) 0;
  let mv = st.moves in
  let m = ref 0 in
  for p = 0 to Array.length phis - 1 do
    let i = phis.(p) in
    let v = Func.phi_incoming_from f i pred in
    (* a phi fed by itself is a no-op on this edge *)
    if v >= 0 && v <> i then begin
      mv.(2 * !m) <- i;
      mv.((2 * !m) + 1) <- v;
      incr m
    end
  done;
  let m = !m in
  (* staging slots are only needed when a phi target is also a phi
     source on the same edge (a parallel-move cycle or overlap); the
     common single-phi edge copies directly *)
  let overlaps = ref false in
  for a = 0 to m - 1 do
    for b = 0 to m - 1 do
      if mv.((2 * b) + 1) = mv.(2 * a) then overlaps := true
    done
  done;
  if not !overlaps then
    for k = 0 to m - 1 do
      let dst = mv.(2 * k) and src = mv.((2 * k) + 1) in
      if Array.unsafe_get tys src == Ty.I128 then
        emiti4 st ls kc_copy128 (s src) (s dst) (s src + 8) (s dst + 8)
      else emiti2 st ls (copy_from st src) (s src) (s dst)
    done
  else begin
    for k = 0 to m - 1 do
      let dst = mv.(2 * k) and src = mv.((2 * k) + 1) in
      if Array.unsafe_get tys src == Ty.I128 then
        emiti4 st ls kc_copy128 (s src) (stage dst) (s src + 8) (stage dst + 8)
      else emiti2 st ls (copy_from st src) (s src) (stage dst)
    done;
    for k = 0 to m - 1 do
      let dst = mv.(2 * k) in
      if Array.unsafe_get tys dst == Ty.I128 then
        emiti4 st ls kc_copy128 (stage dst) (s dst) (stage dst + 8) (s dst + 8)
      else emiti2 st ls kc_copy (stage dst) (s dst)
    done
  end;
  (* the phi slots now hold the successor's values *)
  st.acc <- -1

let edge_moves st ls pred target_blk =
  let phis = st.blk_phis.(target_blk) in
  (* most edges reach a block without phis: nothing to move *)
  if Array.length phis > 0 then edge_copies st ls pred phis

(* compare-and-branch fusion: an integer compare whose only use is the
   branch right after it is emitted by that branch, as one cmp + jcc *)
let fusable st i next =
  let f = st.fn in
  let ops = f.Func.ops and xs = f.Func.xs and tys = f.Func.tys in
  next >= 0
  && Array.unsafe_get ops next == Op.Condbr
  && Array.unsafe_get xs next = i
  && Array.unsafe_get st.uses (i + 1) = 1
  &&
  let t = Array.unsafe_get tys (Array.unsafe_get xs i) in
  t != Ty.I128 && t != Ty.F64

(* a conditional branch of [shape] (see [Kcmpbr]) on [c]: targets [t0]
   and, for shape 2, [t1]; [vo] is the variant offset for [c] in rax.
   Leaves the value it loaded into rax as [acc]. *)
let cond_branch st ls shape c vo t0 t1 =
  let f = st.fn in
  let xs = f.Func.xs and ys = f.Func.ys and nsa = f.Func.ns in
  if st.fused = c then begin
    st.fused <- -1;
    let a = Array.unsafe_get xs c and b = Array.unsafe_get ys c in
    let acc = st.acc in
    let fw = if acc < 0 then -1 else rax_hole f c acc in
    let swap = fw = 0 && a <> acc in
    let cond = cond_of_pred (Array.unsafe_get nsa c) in
    let key = kcmpbr (if swap then mirror cond else cond) shape + variant fw false in
    let l = if swap then b else a and r = if swap then a else b in
    if shape = 2 then emit2t2 st ls key (s l) (s r) t0 t1
    else emit2t1 st ls key (s l) (s r) t0;
    st.acc <- l
  end
  else begin
    let key = (if shape = 0 then kc_condbr else if shape = 1 then kc_condbrnz else kc_condbr2) + vo in
    if shape = 2 then emit1t2 st ls key (s c) t0 t1 else emit1t1 st ls key (s c) t0;
    st.acc <- c
  end

(* argument loads of a call, from register [k] on; a loop rather than a
   [List.iter] closure per call *)
let rec call_args st ls nregs k = function
  | [] -> ()
  | a :: rest ->
      if k >= nregs then unsupported "call with too many register arguments";
      let fa = if a = st.acc then variant 0 false else 0 in
      emiti1 st ls (kldarg k + fa) (s a);
      if Array.unsafe_get st.fn.Func.tys a == Ty.I128 then begin
        if k + 1 >= nregs then unsupported "call with too many register arguments";
        emiti1 st ls (kldarg (k + 1)) (s a + 8);
        call_args st ls nregs (k + 2) rest
      end
      else call_args st ls nregs (k + 1) rest

(* The variant of instruction [i]'s stencil (see [variant]), plus 8 when
   a commutative op takes its right-hand operand in rax by swapping.
   Inlined, with [rax_hole]: a call per instruction measured slower. *)
let[@inline] forwarding st i next =
  let f = st.fn in
  let xs = f.Func.xs and ys = f.Func.ys and ops = f.Func.ops in
  let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
  let op = Array.unsafe_get ops i in
  (* operand forwarding: which hole, if any, reads the value in rax *)
  let acc = st.acc in
  let fw =
    if acc >= 0 && (x = acc || y = acc || (op == Op.Select && Array.unsafe_get f.Func.zs i = acc))
    then if st.hole_at = i && st.hole_of = acc then st.hole else rax_hole f i acc
    else -1
  in
  (* store elision: a scalar whose only use is the next stencil, taking
     it in rax, never needs its slot (phi incomings, call arguments and
     return values are never taken in rax, or are excluded here) *)
  let ty = Array.unsafe_get f.Func.tys i in
  let nostore =
    next >= 0
    && Array.unsafe_get st.uses (i + 1) = 1
    && ty != Ty.Void && ty != Ty.I128
    && Array.unsafe_get ops next != Op.Ret
    &&
    (* kept for [next]'s own forwarding, which asks the same question
       when [i] is still in rax *)
    let h = rax_hole f next i in
    st.hole_at <- next;
    st.hole_of <- i;
    st.hole <- h;
    h >= 0
  in
  variant fw nostore + if fw = 0 && x <> acc then 8 else 0

let emit_inst st ls cur_block i next =
  let fv = forwarding st i next in
  (* [vo] >= 4: the no-store form *)
  let vo = fv land 7 and swap = fv >= 8 in
  (* hoisted IR columns: every index below is an instruction id < nv, so
     the unchecked reads stay inside these arrays *)
  let f = st.fn in
  let ops = f.Func.ops and tys = f.Func.tys in
  let xs = f.Func.xs and ys = f.Func.ys and zs = f.Func.zs in
  let nsa = f.Func.ns and imms = f.Func.imms in
  let blk_phis = st.blk_phis in
  let ty = Array.unsafe_get tys i in
  let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
  let op = Array.unsafe_get ops i in
  (match op with
  | Op.Nop | Op.Arg | Op.Phi -> ()
  | Op.Const ->
      let imm = Array.unsafe_get imms i in
      if ty == Ty.I128 then
        emitc2 st ls kc_const128 (s i) (s i + 8) imm (Int64.shift_right imm 63)
      else emitc1 st ls (kc_const + vo) (s i) imm
  | Op.Const128 ->
      let hi, lo = Func.const128_value f i in
      emitc2 st ls kc_const128 (s i) (s i + 8) lo hi
  | Op.Param ->
      let idx = Int64.to_int (Array.unsafe_get imms i) in
      if ty == Ty.I128 then emitp2 st kc_const128 (s i) (s i + 8) idx
      else emitp1 st (kc_const + vo) (s i) idx
  | Op.Isnull -> emiti2 st ls (kc_isnull + vo) (s x) (s i)
  | Op.Isnotnull -> emiti2 st ls (kc_isnotnull + vo) (s x) (s i)
  | Op.Add | Op.Sub | Op.Mul | Op.And | Op.Or | Op.Xor ->
      if ty == Ty.I128 then
        let key = if op == Op.Mul then kc_mul128 else kalu128 (alu_of_op op) in
        emiti6 st ls key (s x) (s y) (s x + 8) (s y + 8) (s i) (s i + 8)
      else
        let key = kalu (alu_of_op op) (canon_bits ty) + vo in
        if swap then emiti3 st ls key (s y) (s x) (s i)
        else emiti3 st ls key (s x) (s y) (s i)
  | Op.Shl | Op.Lshr | Op.Ashr | Op.Rotr ->
      if ty == Ty.I128 then begin
        let amt =
          match const_of f y with
          | Some a -> Int64.to_int a land 127
          | None -> unsupported "dynamic 128-bit shift"
        in
        if op == Op.Rotr then unsupported "i128 rotate";
        emiti4 st ls (kshift128 (alu_of_op op) amt) (s x) (s x + 8) (s i) (s i + 8)
      end
      else
        emiti3 st ls (kalu (alu_of_op op) (canon_bits ty) + vo) (s x) (s y) (s i)
  | Op.Saddtrap | Op.Ssubtrap ->
      let sub = op == Op.Ssubtrap in
      if ty == Ty.I128 then
        emit6t1 st ls
          (kastrap128 sub)
          (s x) (s y) (s x + 8) (s y + 8) (s i)
          (s i + 8) (trap_l st)
      else
        let key = kastrap sub (canon_bits ty) + vo in
        if swap then emit3t1 st ls key (s y) (s x) (s i) (trap_l st)
        else emit3t1 st ls key (s x) (s y) (s i) (trap_l st)
  | Op.Smultrap ->
      if ty == Ty.I128 then
        emitis st ls kc_multrap128 [| s x; s x + 8; s y; s y + 8; s i; s i + 8 |] [| "umbra_i128MulFull" |]
      else
        let key = kmultrap (canon_bits ty) + vo in
        if swap then emit3t1 st ls key (s y) (s x) (s i) (trap_l st)
        else emit3t1 st ls key (s x) (s y) (s i) (trap_l st)
  | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem ->
      if ty == Ty.I128 then
        unsupported "i128 division must go through the runtime";
      let signed = op == Op.Sdiv || op == Op.Srem in
      let rem = op == Op.Srem || op == Op.Urem in
      emiti3 st ls (kdiv signed rem (canon_bits ty) + vo) (s x) (s y) (s i)
  | Op.Cmp when fusable st i next -> st.fused <- i
  | Op.Cmp -> (
      let p = Array.unsafe_get nsa i in
      match Array.unsafe_get tys x with
      | Ty.I128 -> (
          let pred = Op.cmp_of_int p in
          match pred with
          | Op.Eq | Op.Ne ->
              emiti5 st ls (kcmp128eq (pred == Op.Ne) + vo) (s x) (s y) (s x + 8)
                (s y + 8) (s i)
          | _ ->
              let u =
                match pred with
                | Op.Slt | Op.Ult -> Minst.Ult
                | Op.Sle | Op.Ule -> Minst.Ule
                | Op.Sgt | Op.Ugt -> Minst.Ugt
                | _ -> Minst.Uge
              in
              let hi =
                match pred with
                | Op.Slt | Op.Sle -> Minst.Slt
                | Op.Sgt | Op.Sge -> Minst.Sgt
                | Op.Ult | Op.Ule -> Minst.Ult
                | _ -> Minst.Ugt
              in
              emiti5 st ls (kcmp128ord u hi + vo) (s x) (s y) (s x + 8) (s y + 8) (s i))
      | Ty.F64 -> emiti3 st ls (kcmp (cond_of_pred p) true + vo) (s x) (s y) (s i)
      | _ ->
          if swap then
            emiti3 st ls (kcmp (mirror (cond_of_pred p)) false + vo) (s y) (s x) (s i)
          else emiti3 st ls (kcmp (cond_of_pred p) false + vo) (s x) (s y) (s i))
  | Op.Fcmp ->
      emiti3 st ls (kcmp (cond_of_pred (Array.unsafe_get nsa i)) true + vo) (s x) (s y) (s i)
  | Op.Zext ->
      let bits =
        match Array.unsafe_get tys x with
        | Ty.I1 -> 1
        | Ty.I8 -> 8
        | Ty.I16 -> 16
        | Ty.I32 -> 32
        | _ -> 0
      in
      if ty == Ty.I128 then emiti3 st ls (kzext bits true + vo) (s x) (s i) (s i + 8)
      else emiti2 st ls (kzext bits false + vo) (s x) (s i)
  | Op.Sext ->
      if ty == Ty.I128 then emiti3 st ls (kc_sext128 + vo) (s x) (s i) (s i + 8)
      else emiti2 st ls (kc_sext + vo) (s x) (s i)
  | Op.Trunc ->
      let k = if ty == Ty.I1 then -1 else canon_bits ty in
      emiti2 st ls (ktrunc k + vo) (s x) (s i)
  | Op.Select ->
      let c = x and a = y and b = Array.unsafe_get zs i in
      if ty == Ty.I128 then
        emiti7 st ls (kc_select128 + vo) (s a) (s b) (s c) (s a + 8) (s b + 8) (s i)
          (s i + 8)
      else emiti4 st ls (kc_select + vo) (s a) (s b) (s c) (s i)
  | Op.Load ->
      let off = Int64.to_int (Array.unsafe_get imms i) in
      if ty == Ty.I128 then
        emiti5 st ls (kc_load128 + vo) (s x) off (off + 8) (s i) (s i + 8)
      else begin
        let size = int_max 1 (Ty.size_bytes ty) in
        let sext = ty != Ty.I1 && size < 8 in
        emiti3 st ls (kload size sext false + vo) (s x) off (s i)
      end
  | Op.Store ->
      let vty = Array.unsafe_get tys x in
      let off = Int64.to_int (Array.unsafe_get imms i) in
      if vty == Ty.I128 then
        emiti5 st ls (kc_store128 + vo) (s y) (s x) off (s x + 8) (off + 8)
      else begin
        let size = int_max 1 (Ty.size_bytes vty) in
        emiti3 st ls (kstore size false + vo) (s y) (s x) off
      end
  | Op.Gep ->
      let off = Int64.to_int (Array.unsafe_get imms i) in
      if y >= 0 then begin
        let scale = Array.unsafe_get nsa i in
        if scale = 1 || scale = 2 || scale = 4 || scale = 8 then
          emiti4 st ls (kgep scale + vo) (s x) (s y) off (s i)
        else emiti5 st ls (kc_gep_mul + vo) (s x) (s y) scale off (s i)
      end
      else emiti3 st ls (kc_gep_base + vo) (s x) off (s i)
  | Op.Crc32 -> emiti3 st ls (kc_crc32 + vo) (s x) (s y) (s i)
  | Op.Longmulfold ->
      if swap then emiti3 st ls (kc_lmf + vo) (s y) (s x) (s i)
      else emiti3 st ls (kc_lmf + vo) (s x) (s y) (s i)
  | Op.Atomicadd ->
      let size = int_max 1 (Ty.size_bytes ty) in
      emiti3 st ls (katomic size + vo) (s x) (s y) (s i)
  | Op.Call ->
      call_args st ls (Array.length st.target.Target.arg_regs) 0 (Func.call_args f i);
      let ext = Func.extern st.m (Array.unsafe_get zs i) in
      emits st ls kc_call [| ext.Func.ext_name |];
      (* the result arrives in rax: the no-store form is no stencil *)
      if ty != Ty.Void && vo < 4 then begin
        emiti1 st ls kc_stret0 (s i);
        if ty == Ty.I128 then emiti1 st ls kc_stret1 (s i + 8)
      end
  | Op.Br ->
      (* a branch to the lexically next block falls through: blocks are
         emitted in order and [Br] is always the terminator *)
      if st.has_phi then edge_moves st ls cur_block x;
      if x <> cur_block + 1 then emitt1 st ls kc_jmp x
  | Op.Condbr ->
      let c = x and tb = y and eb = Array.unsafe_get zs i in
      if (not st.has_phi)
         || (Array.length blk_phis.(tb) = 0 && Array.length blk_phis.(eb) = 0)
      then begin
        if tb = cur_block + 1 then cond_branch st ls 0 c vo eb (-1)
        else if eb = cur_block + 1 then cond_branch st ls 1 c vo tb (-1)
        else cond_branch st ls 2 c vo eb tb
      end
      else begin
        let else_stub = new_label ls in
        cond_branch st ls 0 c vo else_stub (-1);
        edge_moves st ls cur_block tb;
        emitt1 st ls kc_jmp tb;
        bind st ls else_stub;
        edge_moves st ls cur_block eb;
        if eb <> cur_block + 1 then emitt1 st ls kc_jmp eb
      end
  | Op.Ret ->
      if x < 0 then emitt1 st ls kc_ret0 st.epilogue
      else if Array.unsafe_get tys x == Ty.I128 then
        emit2t1 st ls kc_ret2 (s x) (s x + 8) st.epilogue
      else emit1t1 st ls (kc_ret1 + vo) (s x) st.epilogue
  | Op.Unreachable -> emit0 st ls kc_unreachable
  | Op.Fadd | Op.Fsub | Op.Fmul | Op.Fdiv ->
      let fop =
        match op with
        | Op.Fadd -> Minst.Fadd
        | Op.Fsub -> Minst.Fsub
        | Op.Fmul -> Minst.Fmul
        | _ -> Minst.Fdiv
      in
      emiti3 st ls (kfalu fop + vo) (s x) (s y) (s i)
  | Op.Sitofp -> emiti2 st ls (kc_cvt_i2f + vo) (s x) (s i)
  | Op.Fptosi -> emiti2 st ls (kc_cvt_f2i + vo) (s x) (s i));
  (* what rax holds now: every scalar result is computed into rax, a
     store leaves its address there, i128 stencils and everything else
     leave nothing usable; instructions that emitted nothing leave it *)
  if op != Op.Nop && op != Op.Arg && op != Op.Phi && st.fused <> i then
    st.acc <-
      (if op == Op.Store then y else if ty == Ty.Void || ty == Ty.I128 then -1 else i)

let compile_func st ls us (f : Func.t) =
  (* 16-byte function alignment with nops, as DirectEmit does *)
  let pad = -st.cb.len land 15 in
  cb_reserve st.cb pad;
  for k = st.cb.len to st.cb.len + pad - 1 do
    Bytes.unsafe_set st.cb.bytes k '\000'
  done;
  st.cb.len <- st.cb.len + pad;
  let start = st.cb.len in
  let nv = Func.num_insts f in
  let nb = Func.num_blocks f in
  (* the first [nb] cells are the blocks: unchecked reads below stay in *)
  let blocks = Vec.unsafe_data f.Func.blocks in
  let ops = f.Func.ops and tys = f.Func.tys in
  let frame = nv lsl 5 in
  (* use counts gate store elision; phi presence gates the per-block phi
     gather below *)
  if Array.length !us <= nv then us := Array.make (2 * (nv + 1)) 0;
  let has_phi = Func.count_uses f !us in
  st.fn <- f;
  st.hole_at <- -1;
  st.uses <- !us;
  st.has_phi <- has_phi;
  (* per-block phi lists, gathered once: edge moves consult these instead
     of rescanning the successor block at every incoming edge *)
  if has_phi then begin
    let blk_phis = Array.make nb [||] in
    st.blk_phis <- blk_phis;
    for b = 0 to nb - 1 do
      let insts = (Array.unsafe_get blocks b).Func.insts in
      let data = Vec.unsafe_data insts in
      let phis = ref [] in
      for k = Vec.length insts - 1 downto 0 do
        let i = Array.unsafe_get data k in
        if Array.unsafe_get ops i == Op.Phi then phis := i :: !phis
      done;
      if !phis <> [] then blk_phis.(b) <- Array.of_list !phis
    done
  end;
  (* labels: block b is label b, then the epilogue and the trap *)
  ls_reset ls (nb + 2);
  ls.n <- nb + 2;
  let epilogue = nb in
  st.epilogue <- epilogue;
  st.trap <- nb + 1;
  st.trap_used <- false;
  (* prologue + incoming argument spill: arguments arrive in registers and
     are parked in their slots once, so stencils can treat them like any
     other value *)
  let nargs = Func.n_args f in
  let args_fuse =
    nargs >= 1 && nargs <= 8
    && nargs <= Array.length st.target.Target.arg_regs
    &&
    let ok = ref true in
    for a = 0 to nargs - 1 do
      let t = Array.unsafe_get tys a in
      if t == Ty.I128 || t == Ty.Void then ok := false
    done;
    !ok
  in
  if args_fuse then emiti1 st ls (kprologue_args nargs) frame
  else begin
    emiti1 st ls kc_prologue frame;
    let argk = ref 0 in
    for a = 0 to nargs - 1 do
      emiti1 st ls (kstarg !argk) (s a);
      incr argk;
      if Array.unsafe_get tys a == Ty.I128 then begin
        emiti1 st ls (kstarg !argk) (s a + 8);
        incr argk
      end
    done
  end;
  let after_prologue = st.cb.len - start in
  (* body: natural block order — every block ends in an explicit branch,
     and entry (block 0) follows the argument spill directly *)
  for b = 0 to nb - 1 do
    bind st ls b;
    (* the block's backing array, read directly: a cross-module [Vec.get]
       per instruction would cost a generic call each (this library is
       built without cross-module inlining) *)
    let insts = (Array.unsafe_get blocks b).Func.insts in
    let data = Vec.unsafe_data insts in
    let n = Vec.length insts in
    (* each instruction is emitted knowing the one after it (a [Nop] there
       emits nothing but also takes nothing in rax: no elision across it) *)
    for k = 0 to n - 1 do
      let next = if k + 1 < n then Array.unsafe_get data (k + 1) else -1 in
      emit_inst st ls b (Array.unsafe_get data k) next
    done
  done;
  bind st ls epilogue;
  emiti1 st ls kc_epilogue frame;
  if st.trap_used then begin
    bind st ls st.trap;
    emits st ls kc_trap [| "umbra_throwOverflow" |]
  end;
  (* resolve intra-function branches *)
  for k = 0 to ls.nfix - 1 do
    let pos = ls.fix.(2 * k) and l = ls.fix.((2 * k) + 1) in
    let target_off = ls.offs.(l) in
    if target_off < 0 then unsupported "unbound stencil label %d" l;
    patch32 st.cb pos (target_off - (pos + 4))
  done;
  let size = st.cb.len - start in
  let rows =
    [
      (0, { Unwind.cfa_offset = 8; saved_regs = [] });
      (after_prologue, { Unwind.cfa_offset = 8 + frame; saved_regs = [] });
    ]
  in
  (start, size, rows)

(* Compilation scratch is domain-local: one growable code buffer and one
   label table per serving domain, reset per module, so the per-query
   path allocates no fresh buffers. *)
let scratch_cb = Domain.DLS.new_key cb_create

let scratch_ls =
  Domain.DLS.new_key (fun () ->
      { offs = Array.make 64 (-1); n = 0; fix = Array.make 64 0; nfix = 0 })

let compile_artifact ~timing ~(target : Target.t) ~registry:_ (m : Func.modul)
    : Qcomp_backend.Artifact.t =
  if target.Target.arch <> Target.X64 then
    invalid_arg
      "stencil back-end only supports x86-64 (copy-and-patch holes need \
       fixed-position encodings)";
  let cb = Domain.DLS.get scratch_cb in
  cb.len <- 0;
  let st =
    { cb; target; cache = cache_for target; flat = flat_for target;
      relocs = []; stencils_used = 0; acc = -1; fused = -1; hole_at = -1; hole_of = -1; hole = -1; m; fn = Func.dummy_func;
      uses = [||]; has_phi = false; moves = Array.make 16 0; blk_phis = [||]; epilogue = -1; trap = -1; trap_used = false;
      ai = Array.make 8 0;
      at = Array.make 2 0; a64 = Bytes.create 16 }
  in
  let ls = Domain.DLS.get scratch_ls in
  let us = Domain.DLS.get scratch_uses in
  let fns = ref [] in
  Timing.scope timing "CodeGen" (fun () ->
      Vec.iter
        (fun f ->
          let start, size, rows = compile_func st ls us f in
          fns := (f.Func.name, start, size, rows) :: !fns)
        m.Func.funcs);
  let code =
    Timing.scope timing "Finalize" (fun () -> Bytes.sub st.cb.bytes 0 st.cb.len)
  in
  {
    Qcomp_backend.Artifact.a_backend = name;
    a_target = target.Target.name;
    a_text = code;
    a_syms =
      List.rev_map
        (fun (n, start, size, _) ->
          {
            Qcomp_backend.Artifact.s_name = n;
            s_off = start;
            s_size = size;
            s_defined = true;
          })
        !fns;
    (* fully relocatable: all runtime addresses go through Abs64 relocs *)
    a_relocs = st.relocs;
    a_unwind =
      List.rev_map
        (fun (_, start, size, rows) ->
          {
            Qcomp_backend.Artifact.uf_start = start;
            uf_size = size;
            uf_sync_only = true;
            uf_rows = rows;
          })
        !fns;
    a_baked = [];
    a_params = Qcomp_backend.Artifact.params_of_module m;
    a_stats =
      [ ("stencils", st.stencils_used); ("stencil_library", library_size ()) ];
    a_code_size = Bytes.length code;
  }

let backend =
  {
    Qcomp_backend.Backend.name;
    supports_params = true;
    compile = Native { artifact = compile_artifact; link = Unscoped };
  }
