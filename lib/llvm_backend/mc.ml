(** The MC layer / "assembly printer" (Sec. V-B6): lowers MIR instructions
    into MC instructions (yet another in-memory form), encodes them into
    the section buffer, and manages string-based symbols — including
    labels for internal basic blocks that are never externally visible,
    whose creation and hashing the paper calls out as overhead. *)

open Qcomp_support
open Qcomp_vm

(* The intermediate MC instruction: mnemonic + operand list, genuinely
   constructed per instruction before encoding. *)
type mcinst = { mc_mnemonic : string; mc_ops : int array; mc_imm : int64 }

type context = {
  asm : Asm.t;
  target : Target.t;
  code_model_large : bool;
  symtab : (string, int) Hashtbl.t;  (** symbol -> text offset (-1 extern) *)
  mutable symbols : Elf.symbol list;
  mutable relocs : Elf.reloc list;
  mutable mcinsts_built : int;
}

let create target ~code_model_large =
  {
    asm = Asm.create target;
    target;
    code_model_large;
    symtab = Hashtbl.create 64;
    symbols = [];
    relocs = [];
    mcinsts_built = 0;
  }

(** Intern a (string-based) symbol bound at the current offset. *)
let define_symbol ctx name ~size =
  Hashtbl.replace ctx.symtab name (Asm.offset ctx.asm);
  ctx.symbols <-
    { Elf.s_name = name; s_off = Asm.offset ctx.asm; s_size = size; s_defined = true }
    :: ctx.symbols

let mnemonic_of (i : Minst.t) =
  match i with
  | Minst.Nop -> "nop"
  | Minst.Mov_rr _ | Minst.Mov_ri _ -> "mov"
  | Minst.Movz _ -> "movz"
  | Minst.Movk _ -> "movk"
  | Minst.Alu_rr (op, _, _) | Minst.Alu_ri (op, _, _) | Minst.Alu_rrr (op, _, _, _)
  | Minst.Alu_rri (op, _, _, _) ->
      Minst.alu_name op
  | Minst.Cmp_rr _ | Minst.Cmp_ri _ -> "cmp"
  | Minst.Ld _ | Minst.Ldx _ -> "mov.load"
  | Minst.St _ -> "mov.store"
  | Minst.Lea _ -> "lea"
  | Minst.Ext _ -> "movx"
  | Minst.Mul_wide _ -> "mul.wide"
  | Minst.Mul_hi _ -> "mulh"
  | Minst.Div _ | Minst.Div_rrr _ -> "div"
  | Minst.Msub _ -> "msub"
  | Minst.Crc32_rr _ | Minst.Crc32_rrr _ -> "crc32"
  | Minst.Setcc (c, _) -> "set" ^ Minst.cond_name c
  | Minst.Csel _ -> "cmov"
  | Minst.Jmp _ -> "jmp"
  | Minst.Jcc (c, _) -> "j" ^ Minst.cond_name c
  | Minst.Jmp_ind _ -> "jmp*"
  | Minst.Jmp_mem _ -> "jmp[]"
  | Minst.Call_rel _ | Minst.Call_ind _ -> "call"
  | Minst.Ret -> "ret"
  | Minst.Falu_rr _ | Minst.Falu_rrr _ -> "fop"
  | Minst.Fcmp_rr _ -> "ucomisd"
  | Minst.Cvt_si2f _ -> "cvtsi2sd"
  | Minst.Cvt_f2si _ -> "cvttsd2si"
  | Minst.Brk _ -> "ud2"

(* Lower one MIR machine instruction to an MCInst and encode it. *)
let emit_minst ctx (i : Minst.t) =
  let defs, uses = Minst.defs_uses i in
  let mc =
    {
      mc_mnemonic = mnemonic_of i;
      mc_ops = Array.of_list (defs @ uses);
      mc_imm = (match i with Minst.Mov_ri (_, v) | Minst.Alu_ri (_, _, v) -> v | _ -> 0L);
    }
  in
  ctx.mcinsts_built <- ctx.mcinsts_built + 1;
  (* nothing reads the MCInst: it is built for what building it costs *)
  ignore (Sys.opaque_identity mc);
  Asm.emit ctx.asm i

(** Emit a call to external symbol [sym] according to the code model.
    Small-PIC: near call to the symbol's PLT stub (relocated later).
    Large: absolute immediate (relocated) + indirect call. The immediate
    needs one contiguous 64-bit field, which only x86-64's movabs has:
    on AArch64 the large model fails here, at compile time. *)
let emit_call ctx sym =
  if ctx.code_model_large then begin
    (* 64-bit absolute immediate, patched by the linker *)
    let imm_field_off =
      Asm.emit_mov_ri64 ctx.asm ctx.target.Target.scratch 0x7FFF_EEEE_DDDD_0000L
    in
    ctx.relocs <- { Elf.r_off = imm_field_off; r_sym = sym; r_kind = Elf.Abs64 } :: ctx.relocs;
    emit_minst ctx (Minst.Call_ind ctx.target.Target.scratch)
  end
  else begin
    (* call rel32 to the PLT entry; the field is patched by the linker *)
    if ctx.target.Target.arch = Target.X64 then begin
      let off = Asm.offset ctx.asm in
      Asm.emit ctx.asm (Minst.Call_rel (off + 5));
      ctx.relocs <- { Elf.r_off = off + 1; r_sym = sym ^ "@plt"; r_kind = Elf.Plt32 } :: ctx.relocs
    end
    else begin
      let off = Asm.offset ctx.asm in
      Asm.emit ctx.asm (Minst.Call_rel off);
      ctx.relocs <- { Elf.r_off = off + 1; r_sym = sym ^ "@plt"; r_kind = Elf.Plt32 } :: ctx.relocs
    end;
    ctx.mcinsts_built <- ctx.mcinsts_built + 1
  end;
  (* externs appear as undefined symbols *)
  if not (Hashtbl.mem ctx.symtab sym) then begin
    Hashtbl.replace ctx.symtab sym (-1);
    ctx.symbols <- { Elf.s_name = sym; s_off = 0; s_size = 0; s_defined = false } :: ctx.symbols
  end

(** Emit one function's MIR. Returns (offset, size). *)
let emit_function ctx ~name (m : Mir.t) =
  while Asm.offset ctx.asm land 15 <> 0 do
    Asm.emit ctx.asm Minst.Nop
  done;
  let start = Asm.offset ctx.asm in
  define_symbol ctx name ~size:0;
  let nb = Array.length m.Mir.blocks in
  (* string-based labels for every internal basic block *)
  let labels = Array.init nb (fun b ->
      let lname = Printf.sprintf ".L%s_bb%d" name b in
      Hashtbl.replace ctx.symtab lname (-2);
      Asm.new_label ctx.asm)
  in
  Array.iteri
    (fun b (blk : Mir.block) ->
      Asm.bind ctx.asm labels.(b);
      Vec.iter
        (fun mi ->
          match mi with
          | Mir.M (Minst.Jmp target) -> Asm.jmp ctx.asm labels.(target)
          | Mir.M (Minst.Jcc (c, target)) -> Asm.jcc ctx.asm c labels.(target)
          | Mir.M inst -> emit_minst ctx inst
          | Mir.Mcall { sym } -> emit_call ctx sym
          | Mir.Mphi _ -> failwith "mc: phi survived to emission"
          | Mir.Mframe_ld _ | Mir.Mframe_st _ ->
              failwith "mc: frame index survived to emission")
        blk.Mir.insts)
    m.Mir.blocks;
  (start, Asm.offset ctx.asm - start)

(** Finish the text section and build the object. *)
let finish ctx : Elf.obj =
  let text = Asm.finish ctx.asm in
  { Elf.o_text = text; o_syms = List.rev ctx.symbols; o_relocs = List.rev ctx.relocs }
