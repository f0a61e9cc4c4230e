(** Assembler buffer: encodes {!Minst} values to bytes, with labels and
    fixups. {!Emu.register_code} decodes the bytes back for execution.

    X64 uses a variable-length encoding (1–10 bytes, immediates and
    displacements grow instructions); A64 uses fixed 4-byte words, so the
    encoder expands wide immediates into [movz]/[movk]/[movn] chains, large
    load/store offsets through the scratch register, and [Lea]/[Jmp_mem]
    pseudos into short sequences — mirroring how real back-ends pay for
    fixed-width encodings. *)

exception Encode_error of string

let enc_fail fmt = Format.kasprintf (fun s -> raise (Encode_error s)) fmt

type fixup_kind =
  | Rel32  (** X64: 4-byte signed, relative to end of field *)
  | Rel24w  (** A64: 3-byte signed word offset, relative to instr start *)
  | Rel16w  (** A64: 2-byte signed word offset, relative to instr start *)

type fixup = { fx_pos : int; fx_kind : fixup_kind; fx_label : int }

type t = {
  target : Target.t;
  mutable bytes : Bytes.t;
  mutable len : int;
  labels : int array ref;  (** label -> bound offset, -1 unbound *)
  mutable num_labels : int;
  mutable fixups : fixup list;
}

let create target =
  {
    target;
    bytes = Bytes.create 256;
    len = 0;
    labels = ref (Array.make 16 (-1));
    num_labels = 0;
    fixups = [];
  }

let offset t = t.len

let reserve t n =
  let cap = Bytes.length t.bytes in
  if t.len + n > cap then begin
    let cap' = max (t.len + n) (2 * cap) in
    let b = Bytes.create cap' in
    Bytes.blit t.bytes 0 b 0 t.len;
    t.bytes <- b
  end

let u8 t v =
  reserve t 1;
  Bytes.unsafe_set t.bytes t.len (Char.unsafe_chr (v land 0xFF));
  t.len <- t.len + 1

let u16 t v =
  u8 t v;
  u8 t (v lsr 8)

let u24 t v =
  u8 t v;
  u8 t (v lsr 8);
  u8 t (v lsr 16)

let u32 t v =
  u16 t v;
  u16 t (v lsr 16)

let u64 t (v : int64) =
  u32 t (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  u32 t (Int64.to_int (Int64.shift_right_logical v 32))

let new_label t =
  let l = t.num_labels in
  let labels = !(t.labels) in
  if l = Array.length labels then begin
    let a = Array.make (2 * l) (-1) in
    Array.blit labels 0 a 0 l;
    t.labels := a
  end;
  t.num_labels <- l + 1;
  l

let bind t l = !(t.labels).(l) <- t.len
let label_offset t l = !(t.labels).(l)

(* ------------------------------------------------------------------ *)
(* Shared numeric helpers *)

let fits_i32 (v : int64) = Int64.of_int32 (Int64.to_int32 v) = v
let fits_i8 (v : int64) = v >= -128L && v <= 127L
let fits_u16 (v : int64) = v >= 0L && v <= 0xFFFFL

let log2_size = function
  | 1 -> 0
  | 2 -> 1
  | 4 -> 2
  | 8 -> 3
  | n -> enc_fail "bad memory access size %d" n

let cond_code (c : Minst.cond) =
  match c with
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
  | Ov -> 10
  | Noov -> 11

let cond_of_code = function
  | 0 -> Minst.Eq
  | 1 -> Minst.Ne
  | 2 -> Minst.Slt
  | 3 -> Minst.Sle
  | 4 -> Minst.Sgt
  | 5 -> Minst.Sge
  | 6 -> Minst.Ult
  | 7 -> Minst.Ule
  | 8 -> Minst.Ugt
  | 9 -> Minst.Uge
  | 10 -> Minst.Ov
  | 11 -> Minst.Noov
  | c -> enc_fail "bad condition code %d" c

let alu_code (a : Minst.alu) =
  match a with
  | Add -> 0
  | Sub -> 1
  | Adc -> 2
  | Sbb -> 3
  | And -> 4
  | Or -> 5
  | Xor -> 6
  | Mul -> 7
  | Shl -> 8
  | Shr -> 9
  | Sar -> 10
  | Ror -> 11

let alu_of_code = function
  | 0 -> Minst.Add
  | 1 -> Minst.Sub
  | 2 -> Minst.Adc
  | 3 -> Minst.Sbb
  | 4 -> Minst.And
  | 5 -> Minst.Or
  | 6 -> Minst.Xor
  | 7 -> Minst.Mul
  | 8 -> Minst.Shl
  | 9 -> Minst.Shr
  | 10 -> Minst.Sar
  | 11 -> Minst.Ror
  | c -> enc_fail "bad alu code %d" c

let falu_code (a : Minst.falu) =
  match a with Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3

let falu_of_code = function
  | 0 -> Minst.Fadd
  | 1 -> Minst.Fsub
  | 2 -> Minst.Fmul
  | 3 -> Minst.Fdiv
  | c -> enc_fail "bad falu code %d" c

let commutative (a : Minst.alu) =
  match a with
  | Add | And | Or | Xor | Mul -> true
  | Sub | Adc | Sbb | Shl | Shr | Sar | Ror -> false

(* ------------------------------------------------------------------ *)
(* X64 opcode map (our own numbering, x86-flavored lengths)            *)

let xop_nop = 0x00
let xop_mov_rr = 0x01
let xop_mov_ri32 = 0x02
let xop_mov_ri64 = 0x03
let xop_cmp_rr = 0x04
let xop_cmp_ri = 0x05
let xop_lea = 0x06
let xop_ext = 0x07
let xop_mulw_u = 0x08
let xop_mulw_s = 0x09
let xop_div_u = 0x0A
let xop_div_s = 0x0B
let xop_crc32 = 0x0C
let xop_lea_nobase = 0x0D (* [index*scale + disp] *)
let xop_alu_rr = 0x10 (* +alu *)
let xop_alu_ri8 = 0x20 (* +alu *)
let xop_alu_ri32 = 0x30 (* +alu *)
let xop_ld = 0x40 (* +log2sz, +4 when sign-extending *)
let xop_st = 0x50 (* +log2sz *)
let xop_setcc = 0x60 (* +cond *)
let xop_csel = 0x70 (* +cond *)
let xop_jmp = 0x80
let xop_jmp_ind = 0x81
let xop_jmp_mem = 0x82
let xop_call_rel = 0x83
let xop_call_ind = 0x84
let xop_ret = 0x85
let xop_jcc = 0x90 (* +cond *)
let xop_falu = 0xA0 (* +falu *)
let xop_fcmp = 0xA4
let xop_cvt_si2f = 0xA5
let xop_cvt_f2si = 0xA6
let xop_ldx = 0xB0 (* +log2sz, +4 when sign-extending *)
let xop_ldx_nobase = 0xB8 (* +log2sz, +4 when sign-extending *)
let xop_brk = 0xFE

(* ------------------------------------------------------------------ *)
(* A64 opcode map (fixed 4-byte words)                                 *)

let aop_nop = 0x00
let aop_mov_rr = 0x01
let aop_movz = 0x02 (* +shift 0..3 *)
let aop_movk = 0x06 (* +shift *)
let aop_alu_rrr = 0x10 (* +alu *)
let aop_alu_rri = 0x20 (* +alu; imm16 unsigned *)
let aop_cmp_rr = 0x40
let aop_cmp_ri = 0x41
let aop_lea = 0x42 (* add with shifted register *)
let aop_ext = 0x43
let aop_mulh_u = 0x44
let aop_mulh_s = 0x45
let aop_div_u = 0x46
let aop_div_s = 0x47
let aop_msub = 0x48
let aop_crc32 = 0x49
let aop_ld = 0x50 (* +log2sz, +4 sext; unsigned scaled off8 *)
let aop_ldx = 0x58 (* +log2sz, +4 sext; register offset, lsl 0 or log2sz *)
let aop_st = 0x60 (* +log2sz *)
let aop_setcc = 0x70 (* +cond *)
let aop_csel = 0x80 (* +cond *)
let aop_jcc = 0x90 (* +cond; rel16 words *)
let aop_jmp = 0xB0 (* rel24 words *)
let aop_jmp_ind = 0xB1
let aop_call_rel = 0xB3
let aop_call_ind = 0xB4
let aop_ret = 0xB5
let aop_falu = 0xC0 (* +falu *)
let aop_fcmp = 0xC4
let aop_cvt_si2f = 0xC5
let aop_cvt_f2si = 0xC6
let aop_brk = 0xFE

(* ------------------------------------------------------------------ *)
(* X64 encoder                                                         *)

let regpair d s = ((d land 0xF) lsl 4) lor (s land 0xF)

let rec encode_x64 t (i : Minst.t) =
  match i with
  | Nop -> u8 t xop_nop
  | Mov_rr (d, s) ->
      u8 t xop_mov_rr;
      u8 t (regpair d s)
  | Mov_ri (d, v) ->
      if fits_i32 v then begin
        u8 t xop_mov_ri32;
        u8 t d;
        u32 t (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
      end
      else begin
        u8 t xop_mov_ri64;
        u8 t d;
        u64 t v
      end
  | Movz _ | Movk _ -> enc_fail "movz/movk are A64-only"
  | Alu_rr (op, d, s) ->
      u8 t (xop_alu_rr + alu_code op);
      u8 t (regpair d s)
  | Alu_ri (op, d, v) ->
      if fits_i8 v then begin
        u8 t (xop_alu_ri8 + alu_code op);
        u8 t d;
        u8 t (Int64.to_int (Int64.logand v 0xFFL))
      end
      else if fits_i32 v then begin
        u8 t (xop_alu_ri32 + alu_code op);
        u8 t d;
        u32 t (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
      end
      else begin
        (* Wide immediate: materialize through the scratch register, like a
           real code generator would. *)
        encode_x64 t (Mov_ri (t.target.Target.scratch, v));
        encode_x64 t (Alu_rr (op, d, t.target.Target.scratch))
      end
  | Alu_rrr (op, d, a, b) ->
      (* Pseudo on X64: lower to two-address form. *)
      if d = a then encode_x64 t (Alu_rr (op, d, b))
      else if d = b && commutative op then encode_x64 t (Alu_rr (op, d, a))
      else if d = b then begin
        encode_x64 t (Mov_rr (t.target.Target.scratch, b));
        encode_x64 t (Mov_rr (d, a));
        encode_x64 t (Alu_rr (op, d, t.target.Target.scratch))
      end
      else begin
        encode_x64 t (Mov_rr (d, a));
        encode_x64 t (Alu_rr (op, d, b))
      end
  | Alu_rri (op, d, a, v) ->
      if d <> a then encode_x64 t (Mov_rr (d, a));
      encode_x64 t (Alu_ri (op, d, v))
  | Cmp_rr (a, b) ->
      u8 t xop_cmp_rr;
      u8 t (regpair a b)
  | Cmp_ri (a, v) ->
      if fits_i32 v then begin
        u8 t xop_cmp_ri;
        u8 t a;
        u32 t (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
      end
      else begin
        encode_x64 t (Mov_ri (t.target.Target.scratch, v));
        encode_x64 t (Cmp_rr (a, t.target.Target.scratch))
      end
  | Ld { dst; base; off; size; sext } ->
      u8 t (xop_ld + log2_size size + if sext then 4 else 0);
      u8 t (regpair dst base);
      u32 t off
  | St { src; base; off; size } ->
      u8 t (xop_st + log2_size size);
      u8 t (regpair src base);
      u32 t off
  | Ldx { dst; base; index; scale; off; size; sext } ->
      if index < 0 then enc_fail "indexed load without an index";
      let sz = log2_size size + if sext then 4 else 0 in
      if base >= 0 then begin
        u8 t (xop_ldx + sz);
        u8 t (regpair dst base)
      end
      else begin
        u8 t (xop_ldx_nobase + sz);
        u8 t dst
      end;
      u8 t index;
      u8 t (log2_size scale);
      u32 t off
  | Lea { dst; base; index; scale; off } when base < 0 ->
      if index < 0 then enc_fail "lea without a base or an index";
      u8 t xop_lea_nobase;
      u8 t dst;
      u8 t index;
      u8 t (log2_size scale);
      u32 t off
  | Lea { dst; base; index; scale; off } ->
      u8 t xop_lea;
      u8 t (regpair dst base);
      u8 t (index land 0xFF);
      u8 t (if index >= 0 then log2_size scale else 0);
      u32 t off
  | Ext { dst; src; bits; signed } ->
      u8 t xop_ext;
      u8 t (regpair dst src);
      u8 t (bits lor if signed then 0x80 else 0)
  | Mul_wide { signed; src } ->
      u8 t (if signed then xop_mulw_s else xop_mulw_u);
      u8 t src
  | Mul_hi _ -> enc_fail "mul_hi is A64-only"
  | Div { signed; src } ->
      u8 t (if signed then xop_div_s else xop_div_u);
      u8 t src
  | Div_rrr _ | Msub _ -> enc_fail "3-operand div/msub are A64-only"
  | Crc32_rr (d, s) ->
      u8 t xop_crc32;
      u8 t (regpair d s)
  | Crc32_rrr _ -> enc_fail "crc32_rrr is A64-only"
  | Setcc (c, d) ->
      u8 t (xop_setcc + cond_code c);
      u8 t d
  | Csel { cond; dst; a; b } ->
      if dst <> a then enc_fail "X64 csel requires dst = a (cmov)";
      u8 t (xop_csel + cond_code cond);
      u8 t (regpair dst b)
  | Jmp off ->
      u8 t xop_jmp;
      u32 t (off - (t.len + 4))
  | Jcc (c, off) ->
      u8 t (xop_jcc + cond_code c);
      u32 t (off - (t.len + 4))
  | Jmp_ind r ->
      u8 t xop_jmp_ind;
      u8 t r
  | Jmp_mem addr ->
      if not (fits_i32 addr) then enc_fail "jmp_mem slot out of range";
      u8 t xop_jmp_mem;
      u32 t (Int64.to_int (Int64.logand addr 0xFFFFFFFFL))
  | Call_rel off ->
      u8 t xop_call_rel;
      u32 t (off - (t.len + 4))
  | Call_ind r ->
      u8 t xop_call_ind;
      u8 t r
  | Ret -> u8 t xop_ret
  | Falu_rr (op, d, s) ->
      u8 t (xop_falu + falu_code op);
      u8 t (regpair d s)
  | Falu_rrr (op, d, a, b) ->
      if d = a then encode_x64 t (Falu_rr (op, d, b))
      else if d = b && (op = Fadd || op = Fmul) then
        encode_x64 t (Falu_rr (op, d, a))
      else begin
        if d = b then begin
          encode_x64 t (Mov_rr (t.target.Target.scratch, b));
          encode_x64 t (Mov_rr (d, a));
          encode_x64 t (Falu_rr (op, d, t.target.Target.scratch))
        end
        else begin
          encode_x64 t (Mov_rr (d, a));
          encode_x64 t (Falu_rr (op, d, b))
        end
      end
  | Fcmp_rr (a, b) ->
      u8 t xop_fcmp;
      u8 t (regpair a b)
  | Cvt_si2f (d, s) ->
      u8 t xop_cvt_si2f;
      u8 t (regpair d s)
  | Cvt_f2si (d, s) ->
      u8 t xop_cvt_f2si;
      u8 t (regpair d s)
  | Brk code ->
      u8 t xop_brk;
      u8 t code

(* ------------------------------------------------------------------ *)
(* A64 encoder                                                        *)

let word t op b1 b2 b3 =
  u8 t op;
  u8 t b1;
  u8 t b2;
  u8 t b3

let word16 t op b1 (imm : int) =
  u8 t op;
  u8 t b1;
  u16 t imm

let rec encode_a64 t (i : Minst.t) =
  let scratch = t.target.Target.scratch in
  match i with
  | Nop -> word t aop_nop 0 0 0
  | Mov_rr (d, s) -> word t aop_mov_rr d s 0
  | Mov_ri (d, v) ->
      (* movz + movk chain; zero chunks are skipped (movz clears them).
         Negative values expand to four instructions — we do not model
         movn, a documented simplification. *)
      let chunk k =
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * k)) 0xFFFFL)
      in
      let emitted = ref false in
      for k = 0 to 3 do
        let c = chunk k in
        if c <> 0 then begin
          if !emitted then encode_a64 t (Movk (d, c, k))
          else begin
            encode_a64 t (Movz (d, c, k));
            emitted := true
          end
        end
      done;
      if not !emitted then encode_a64 t (Movz (d, 0, 0))
  | Movz (d, imm, sh) -> word16 t (aop_movz + sh) d imm
  | Movk (d, imm, sh) -> word16 t (aop_movk + sh) d imm
  | Alu_rr (op, d, s) -> encode_a64 t (Alu_rrr (op, d, d, s))
  | Alu_ri (op, d, v) -> encode_a64 t (Alu_rri (op, d, d, v))
  | Alu_rrr (op, d, a, b) -> word t (aop_alu_rrr + alu_code op) d a b
  | Alu_rri (op, d, a, v) ->
      (* imm12 packed across the operand bytes, like the real encoding. *)
      if v >= 0L && v <= 4095L then begin
        let imm = Int64.to_int v in
        word t (aop_alu_rri + alu_code op)
          (d lor ((a land 0x7) lsl 5))
          ((a lsr 3) lor ((imm land 0x3F) lsl 2))
          (imm lsr 6)
      end
      else begin
        encode_a64 t (Mov_ri (scratch, v));
        encode_a64 t (Alu_rrr (op, d, a, scratch))
      end
  | Cmp_rr (a, b) -> word t aop_cmp_rr a b 0
  | Cmp_ri (a, v) ->
      if fits_u16 v then word16 t aop_cmp_ri a (Int64.to_int v)
      else begin
        encode_a64 t (Mov_ri (scratch, v));
        encode_a64 t (Cmp_rr (a, scratch))
      end
  | Ld { dst; base; off; size; sext } ->
      if off >= 0 && off mod size = 0 && off / size <= 255 then
        word t (aop_ld + log2_size size + if sext then 4 else 0) dst base
          (off / size)
      else begin
        encode_a64 t (Mov_ri (scratch, Int64.of_int off));
        encode_a64 t (Alu_rrr (Add, scratch, scratch, base));
        encode_a64 t (Ld { dst; base = scratch; off = 0; size; sext })
      end
  | St { src; base; off; size } ->
      if off >= 0 && off mod size = 0 && off / size <= 255 then
        word t (aop_st + log2_size size) src base (off / size)
      else begin
        encode_a64 t (Mov_ri (scratch, Int64.of_int off));
        encode_a64 t (Alu_rrr (Add, scratch, scratch, base));
        encode_a64 t (St { src; base = scratch; off = 0; size })
      end
  | Ldx { dst; base; index; scale; off; size; sext } ->
      (* exactly [ldr Xt, [Xn, Xm, lsl #k]]: a base, no displacement and
         k = 0 or log2 of the access size *)
      if base < 0 || index < 0 || off <> 0 || (scale <> 1 && scale <> size) then
        enc_fail "a64 indexed load needs [base + index lsl 0|log2 size]";
      word t (aop_ldx + log2_size size + if sext then 4 else 0) dst base
        (index lor (log2_size scale lsl 5))
  | Lea { base; _ } when base < 0 -> enc_fail "lea without a base is X64-only"
  | Lea { dst; base; index; scale; off } ->
      if index >= 0 then begin
        word t aop_lea dst base (index lor (log2_size scale lsl 5));
        if off <> 0 then encode_a64 t (Alu_rri (Add, dst, dst, Int64.of_int off))
      end
      else if off = 0 then encode_a64 t (Mov_rr (dst, base))
      else encode_a64 t (Alu_rri (Add, dst, base, Int64.of_int off))
  | Ext { dst; src; bits; signed } ->
      word t aop_ext dst src (bits lor if signed then 0x80 else 0)
  | Mul_wide _ -> enc_fail "mul_wide is X64-only"
  | Mul_hi { signed; dst; a; b } ->
      word t (if signed then aop_mulh_s else aop_mulh_u) dst a b
  | Div _ -> enc_fail "implicit-register div is X64-only"
  | Div_rrr { signed; dst; a; b } ->
      word t (if signed then aop_div_s else aop_div_u) dst a b
  | Msub { dst; a; b; c } ->
      if c <> dst then enc_fail "A64 msub pseudo requires c = dst";
      word t aop_msub dst a b
  | Crc32_rr (d, s) -> encode_a64 t (Crc32_rrr (d, d, s))
  | Crc32_rrr (d, a, b) -> word t aop_crc32 d a b
  | Setcc (c, d) -> word t (aop_setcc + cond_code c) d 0 0
  | Csel { cond; dst; a; b } -> word t (aop_csel + cond_code cond) dst a b
  | Jmp off ->
      let rel = (off - t.len) asr 2 in
      u8 t aop_jmp;
      u24 t rel
  | Jcc (c, off) ->
      let rel = (off - t.len) asr 2 in
      word16 t (aop_jcc + cond_code c) 0 (rel land 0xFFFF)
  | Jmp_ind r -> word t aop_jmp_ind r 0 0
  | Jmp_mem addr ->
      (* adrp+ldr+br equivalent: materialize the slot address, load, jump *)
      encode_a64 t (Mov_ri (scratch, addr));
      encode_a64 t (Ld { dst = scratch; base = scratch; off = 0; size = 8; sext = false });
      encode_a64 t (Jmp_ind scratch)
  | Call_rel off ->
      let rel = (off - t.len) asr 2 in
      u8 t aop_call_rel;
      u24 t rel
  | Call_ind r -> word t aop_call_ind r 0 0
  | Ret -> word t aop_ret 0 0 0
  | Falu_rr (op, d, s) -> encode_a64 t (Falu_rrr (op, d, d, s))
  | Falu_rrr (op, d, a, b) -> word t (aop_falu + falu_code op) d a b
  | Fcmp_rr (a, b) -> word t aop_fcmp a b 0
  | Cvt_si2f (d, s) -> word t aop_cvt_si2f d s 0
  | Cvt_f2si (d, s) -> word t aop_cvt_f2si d s 0
  | Brk code -> word t aop_brk code 0 0

let emit t i =
  match t.target.Target.arch with
  | Target.X64 -> encode_x64 t i
  | Target.A64 -> encode_a64 t i

(* ------------------------------------------------------------------ *)
(* Label-based branches                                                *)

let add_fixup t kind label = t.fixups <- { fx_pos = t.len; fx_kind = kind; fx_label = label } :: t.fixups

let jmp t label =
  match t.target.Target.arch with
  | Target.X64 ->
      u8 t xop_jmp;
      add_fixup t Rel32 label;
      u32 t 0
  | Target.A64 ->
      u8 t aop_jmp;
      add_fixup t Rel24w label;
      u24 t 0

let jcc t cond label =
  match t.target.Target.arch with
  | Target.X64 ->
      u8 t (xop_jcc + cond_code cond);
      add_fixup t Rel32 label;
      u32 t 0
  | Target.A64 ->
      u8 t (aop_jcc + cond_code cond);
      u8 t 0;
      add_fixup t Rel16w label;
      u16 t 0

let call_label t label =
  match t.target.Target.arch with
  | Target.X64 ->
      u8 t xop_call_rel;
      add_fixup t Rel32 label;
      u32 t 0
  | Target.A64 ->
      u8 t aop_call_rel;
      add_fixup t Rel24w label;
      u24 t 0

let patch_u8 t pos v = Bytes.set t.bytes pos (Char.chr (v land 0xFF))

let patch t { fx_pos; fx_kind; fx_label } =
  let target_off = !(t.labels).(fx_label) in
  if target_off < 0 then enc_fail "unbound label %d" fx_label;
  match fx_kind with
  | Rel32 ->
      let rel = target_off - (fx_pos + 4) in
      patch_u8 t fx_pos rel;
      patch_u8 t (fx_pos + 1) (rel asr 8);
      patch_u8 t (fx_pos + 2) (rel asr 16);
      patch_u8 t (fx_pos + 3) (rel asr 24)
  | Rel24w ->
      (* field begins 1 byte into the word; relative to instruction start *)
      let rel = (target_off - (fx_pos - 1)) asr 2 in
      patch_u8 t fx_pos rel;
      patch_u8 t (fx_pos + 1) (rel asr 8);
      patch_u8 t (fx_pos + 2) (rel asr 16)
  | Rel16w ->
      let rel = (target_off - (fx_pos - 2)) asr 2 in
      patch_u8 t fx_pos rel;
      patch_u8 t (fx_pos + 1) (rel asr 8)

(** Overwrite a previously emitted 32-bit immediate (e.g. the frame size in
    a single-pass compiler's prologue, patched once the frame is known). *)
let patch_imm32 t pos v =
  patch_u8 t pos v;
  patch_u8 t (pos + 1) (v asr 8);
  patch_u8 t (pos + 2) (v asr 16);
  patch_u8 t (pos + 3) (v asr 24)

(** Emit a [Mov_ri] in the wide (64-bit-immediate) encoding regardless of
    the value's range and return the byte offset of its 8-byte immediate
    field — a patchable hole for link-time parameter binding. X64 only:
    the A64 pseudo expands to a value-dependent movz/movk sequence with no
    fixed-width field. *)
let emit_mov_ri64 t d v =
  (match t.target.Target.arch with
  | Target.X64 -> ()
  | Target.A64 -> enc_fail "emit_mov_ri64 is X64-only");
  u8 t xop_mov_ri64;
  u8 t d;
  let pos = t.len in
  u64 t v;
  pos

let finish t =
  List.iter (patch t) t.fixups;
  t.fixups <- [];
  Bytes.sub t.bytes 0 t.len

(* ------------------------------------------------------------------ *)
(* Decoding lives in {!Emu}'s loader, which turns these bytes straight
   into its instruction table; it raises this on a malformed blob. *)

exception Decode_error of string
