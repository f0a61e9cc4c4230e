(** Textual assembly: the GCC back-end prints its final machine code as
    text, and a separate "assembler" parses that text back and encodes it —
    the external-tool round trip (plus its file I/O) that Table I charges
    to the assembler phase. *)

open Qcomp_vm
module Mir = Qcomp_llvm.Mir
module Asm = Qcomp_vm.Asm
module Elf = Qcomp_llvm.Elf

let reg_names (target : Target.t) =
  Array.init target.Target.num_regs (fun r -> Target.reg_name target r)

(* ---------------- printer ---------------- *)

let print_function (target : Target.t) ~name (m : Mir.t) (b : Buffer.t) =
  let r = Target.reg_name target in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (* [base+index*scale+off], an absent base or index left out *)
  let mem base index scale off =
    String.concat "+"
      ((if base >= 0 then [ r base ] else [])
      @ if index >= 0 then [ Printf.sprintf "%s*%d" (r index) scale ] else [])
    ^ Printf.sprintf "%+d" off
  in
  add ".globl %s\n%s:\n" name name;
  Array.iteri
    (fun bi (blk : Mir.block) ->
      add ".L%s_%d:\n" name bi;
      Qcomp_support.Vec.iter
        (fun mi ->
          match mi with
          | Mir.Mcall { sym } -> add "\tcall %s\n" sym
          | Mir.Mphi _ | Mir.Mframe_ld _ | Mir.Mframe_st _ ->
              failwith "gasm: unexpected pseudo instruction"
          | Mir.M i -> (
              match i with
              | Minst.Nop -> add "\tnop\n"
              | Minst.Mov_rr (d, s) -> add "\tmov %s, %s\n" (r d) (r s)
              | Minst.Mov_ri (d, v) -> add "\tmov %s, %Ld\n" (r d) v
              | Minst.Movz (d, v, sh) -> add "\tmovz %s, %d, %d\n" (r d) v sh
              | Minst.Movk (d, v, sh) -> add "\tmovk %s, %d, %d\n" (r d) v sh
              | Minst.Alu_rr (op, d, s) -> add "\t%s %s, %s\n" (Minst.alu_name op) (r d) (r s)
              | Minst.Alu_ri (op, d, v) -> add "\t%s %s, %Ld\n" (Minst.alu_name op) (r d) v
              | Minst.Alu_rrr (op, d, a, bb) ->
                  add "\t%s %s, %s, %s\n" (Minst.alu_name op) (r d) (r a) (r bb)
              | Minst.Alu_rri (op, d, a, v) ->
                  add "\t%s %s, %s, %Ld\n" (Minst.alu_name op) (r d) (r a) v
              | Minst.Cmp_rr (a, bb) -> add "\tcmp %s, %s\n" (r a) (r bb)
              | Minst.Cmp_ri (a, v) -> add "\tcmp %s, %Ld\n" (r a) v
              | Minst.Ld { dst; base; off; size; sext } ->
                  add "\tld%d%s %s, [%s]\n" size (if sext then "s" else "u") (r dst)
                    (mem base (-1) 1 off)
              | Minst.St { src; base; off; size } ->
                  add "\tst%d %s, [%s]\n" size (r src) (mem base (-1) 1 off)
              | Minst.Ldx { dst; base; index; scale; off; size; sext } ->
                  add "\tld%d%s %s, [%s]\n" size (if sext then "s" else "u") (r dst)
                    (mem base index scale off)
              | Minst.Lea { dst; base; index; scale; off } ->
                  add "\tlea %s, [%s]\n" (r dst) (mem base index scale off)
              | Minst.Ext { dst; src; bits; signed } ->
                  add "\text%d%s %s, %s\n" bits (if signed then "s" else "u") (r dst) (r src)
              | Minst.Mul_wide { signed; src } ->
                  add "\tmulw%s %s\n" (if signed then "s" else "u") (r src)
              | Minst.Mul_hi { signed; dst; a; b = bb } ->
                  add "\tmulh%s %s, %s, %s\n" (if signed then "s" else "u") (r dst) (r a) (r bb)
              | Minst.Div { signed; src } ->
                  add "\tdivw%s %s\n" (if signed then "s" else "u") (r src)
              | Minst.Div_rrr { signed; dst; a; b = bb } ->
                  add "\tdiv%s %s, %s, %s\n" (if signed then "s" else "u") (r dst) (r a) (r bb)
              | Minst.Msub { dst; a; b = bb; _ } ->
                  add "\tmsub %s, %s, %s\n" (r dst) (r a) (r bb)
              | Minst.Crc32_rr (d, s) -> add "\tcrc32 %s, %s\n" (r d) (r s)
              | Minst.Crc32_rrr (d, a, bb) -> add "\tcrc32x %s, %s, %s\n" (r d) (r a) (r bb)
              | Minst.Setcc (c, d) -> add "\tset.%s %s\n" (Minst.cond_name c) (r d)
              | Minst.Csel { cond; dst; a; b = bb } ->
                  add "\tcsel.%s %s, %s, %s\n" (Minst.cond_name cond) (r dst) (r a) (r bb)
              | Minst.Jmp target -> add "\tjmp .L%s_%d\n" name target
              | Minst.Jcc (c, target) -> add "\tj.%s .L%s_%d\n" (Minst.cond_name c) name target
              | Minst.Jmp_ind reg -> add "\tjmpr %s\n" (r reg)
              | Minst.Jmp_mem a -> add "\tjmpm %Ld\n" a
              | Minst.Call_rel off -> add "\tcallrel %d\n" off
              | Minst.Call_ind reg -> add "\tcallr %s\n" (r reg)
              | Minst.Ret -> add "\tret\n"
              | Minst.Falu_rr (op, d, s) ->
                  let n = match op with Minst.Fadd -> "fadd" | Minst.Fsub -> "fsub" | Minst.Fmul -> "fmul" | Minst.Fdiv -> "fdiv" in
                  add "\t%s %s, %s\n" n (r d) (r s)
              | Minst.Falu_rrr (op, d, a, bb) ->
                  let n = match op with Minst.Fadd -> "fadd" | Minst.Fsub -> "fsub" | Minst.Fmul -> "fmul" | Minst.Fdiv -> "fdiv" in
                  add "\t%s %s, %s, %s\n" n (r d) (r a) (r bb)
              | Minst.Fcmp_rr (a, bb) -> add "\tfcmp %s, %s\n" (r a) (r bb)
              | Minst.Cvt_si2f (d, s) -> add "\tscvtf %s, %s\n" (r d) (r s)
              | Minst.Cvt_f2si (d, s) -> add "\tfcvtzs %s, %s\n" (r d) (r s)
              | Minst.Brk code -> add "\tbrk %d\n" code))
        blk.Mir.insts)
    m.Mir.blocks

(* ---------------- assembler ---------------- *)

exception Asm_error of string

let alu_of_name = function
  | "add" -> Minst.Add
  | "sub" -> Minst.Sub
  | "adc" -> Minst.Adc
  | "sbb" -> Minst.Sbb
  | "and" -> Minst.And
  | "or" -> Minst.Or
  | "xor" -> Minst.Xor
  | "mul" -> Minst.Mul
  | "shl" -> Minst.Shl
  | "shr" -> Minst.Shr
  | "sar" -> Minst.Sar
  | "ror" -> Minst.Ror
  | n -> raise (Asm_error ("unknown alu op " ^ n))

let cond_of_name = function
  | "eq" -> Minst.Eq
  | "ne" -> Minst.Ne
  | "lt" -> Minst.Slt
  | "le" -> Minst.Sle
  | "gt" -> Minst.Sgt
  | "ge" -> Minst.Sge
  | "ult" -> Minst.Ult
  | "ule" -> Minst.Ule
  | "ugt" -> Minst.Ugt
  | "uge" -> Minst.Uge
  | "o" -> Minst.Ov
  | "no" -> Minst.Noov
  | n -> raise (Asm_error ("unknown condition " ^ n))

(** Assemble the whole text into an object (text section + symbols +
    relocations for calls). *)
let assemble (target : Target.t) (src : string) : Elf.obj =
  let names = reg_names target in
  let reg_of name =
    let rec go i =
      if i >= Array.length names then raise (Asm_error ("unknown register " ^ name))
      else if names.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let asm = Asm.create target in
  let labels : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let label_of name =
    match Hashtbl.find_opt labels name with
    | Some l -> l
    | None ->
        let l = Asm.new_label asm in
        Hashtbl.add labels name l;
        l
  in
  let symbols = ref [] in
  let relocs = ref [] in
  let externs = ref [] in
  let lines = String.split_on_char '\n' src in
  (* operand helpers *)
  let split_ops s =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
  in
  let imm s = Int64.of_string s in
  let parse_mem s =
    (* [base+index*scale+off], base and index optional: a term with a '*'
       is the scaled index, a register name the base, a number the
       offset; '-' starts a term as '+' does *)
    let inner = String.sub s 1 (String.length s - 2) in
    let terms = ref [] and start = ref 0 in
    String.iteri
      (fun i c ->
        if i > 0 && (c = '+' || c = '-') then begin
          terms := String.sub inner !start (i - !start) :: !terms;
          start := if c = '+' then i + 1 else i
        end)
      inner;
    terms := String.sub inner !start (String.length inner - !start) :: !terms;
    List.fold_left
      (fun (base, index, scale, off) t ->
        match String.index_opt t '*' with
        | Some star ->
            (base, reg_of (String.sub t 0 star), int_of_string (String.sub t (star + 1) (String.length t - star - 1)), off)
        | None when Array.mem t names -> (reg_of t, index, scale, off)
        | None -> (base, index, scale, off + int_of_string t))
      (-1, -1, 1, 0) (List.rev !terms)
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" then ()
      else if String.length line > 6 && String.sub line 0 6 = ".globl" then ()
      else if line.[String.length line - 1] = ':' then begin
        let name = String.sub line 0 (String.length line - 1) in
        Asm.bind asm (label_of name);
        if name.[0] <> '.' then
          symbols :=
            { Elf.s_name = name; s_off = Asm.offset asm; s_size = 0; s_defined = true }
            :: !symbols
      end
      else begin
        let sp = try String.index line ' ' with Not_found -> String.length line in
        let mn = String.sub line 0 sp in
        let rest = if sp < String.length line then String.sub line (sp + 1) (String.length line - sp - 1) else "" in
        let ops = split_ops rest in
        let is_reg s = Array.exists (fun n -> n = s) names in
        let dotted () =
          let d = String.index mn '.' in
          (String.sub mn 0 d, String.sub mn (d + 1) (String.length mn - d - 1))
        in
        match mn with
        | "nop" -> Asm.emit asm Minst.Nop
        | "mov" -> (
            match ops with
            | [ d; s ] when is_reg s -> Asm.emit asm (Minst.Mov_rr (reg_of d, reg_of s))
            | [ d; v ] -> Asm.emit asm (Minst.Mov_ri (reg_of d, imm v))
            | _ -> raise (Asm_error line))
        | "movz" | "movk" -> (
            match ops with
            | [ d; v; sh ] ->
                let ctor = if mn = "movz" then (fun a b c -> Minst.Movz (a, b, c)) else (fun a b c -> Minst.Movk (a, b, c)) in
                Asm.emit asm (ctor (reg_of d) (int_of_string v) (int_of_string sh))
            | _ -> raise (Asm_error line))
        | "cmp" -> (
            match ops with
            | [ a; b ] when is_reg b -> Asm.emit asm (Minst.Cmp_rr (reg_of a, reg_of b))
            | [ a; v ] -> Asm.emit asm (Minst.Cmp_ri (reg_of a, imm v))
            | _ -> raise (Asm_error line))
        | "lea" -> (
            match ops with
            | [ d; mem ] ->
                let base, index, scale, off = parse_mem mem in
                Asm.emit asm (Minst.Lea { dst = reg_of d; base; index; scale; off })
            | _ -> raise (Asm_error line))
        | "crc32" -> (
            match ops with
            | [ d; s ] -> Asm.emit asm (Minst.Crc32_rr (reg_of d, reg_of s))
            | _ -> raise (Asm_error line))
        | "crc32x" -> (
            match ops with
            | [ d; a; b ] -> Asm.emit asm (Minst.Crc32_rrr (reg_of d, reg_of a, reg_of b))
            | _ -> raise (Asm_error line))
        | "msub" -> (
            match ops with
            | [ d; a; b ] ->
                Asm.emit asm (Minst.Msub { dst = reg_of d; a = reg_of a; b = reg_of b; c = reg_of d })
            | _ -> raise (Asm_error line))
        | "jmp" -> Asm.jmp asm (label_of (List.hd ops))
        | "jmpr" -> Asm.emit asm (Minst.Jmp_ind (reg_of (List.hd ops)))
        | "jmpm" -> Asm.emit asm (Minst.Jmp_mem (imm (List.hd ops)))
        | "callr" -> Asm.emit asm (Minst.Call_ind (reg_of (List.hd ops)))
        | "callrel" -> Asm.emit asm (Minst.Call_rel (int_of_string (List.hd ops)))
        | "call" ->
            (* external call: placeholder + relocation to the PLT *)
            let sym = List.hd ops in
            let off = Asm.offset asm in
            if target.Target.arch = Target.X64 then begin
              Asm.emit asm (Minst.Call_rel (off + 5));
              relocs := { Elf.r_off = off + 1; r_sym = sym ^ "@plt"; r_kind = Elf.Plt32 } :: !relocs
            end
            else begin
              Asm.emit asm (Minst.Call_rel off);
              relocs := { Elf.r_off = off + 1; r_sym = sym ^ "@plt"; r_kind = Elf.Plt32 } :: !relocs
            end;
            if not (List.mem sym !externs) then externs := sym :: !externs
        | "ret" -> Asm.emit asm Minst.Ret
        | "fcmp" -> (
            match ops with
            | [ a; b ] -> Asm.emit asm (Minst.Fcmp_rr (reg_of a, reg_of b))
            | _ -> raise (Asm_error line))
        | "scvtf" -> Asm.emit asm (Minst.Cvt_si2f (reg_of (List.nth ops 0), reg_of (List.nth ops 1)))
        | "fcvtzs" -> Asm.emit asm (Minst.Cvt_f2si (reg_of (List.nth ops 0), reg_of (List.nth ops 1)))
        | "brk" -> Asm.emit asm (Minst.Brk (int_of_string (List.hd ops)))
        | "fadd" | "fsub" | "fmul" | "fdiv" -> (
            let fop = match mn with "fadd" -> Minst.Fadd | "fsub" -> Minst.Fsub | "fmul" -> Minst.Fmul | _ -> Minst.Fdiv in
            match ops with
            | [ d; s ] -> Asm.emit asm (Minst.Falu_rr (fop, reg_of d, reg_of s))
            | [ d; a; b ] -> Asm.emit asm (Minst.Falu_rrr (fop, reg_of d, reg_of a, reg_of b))
            | _ -> raise (Asm_error line))
        | _ when String.length mn > 2 && String.sub mn 0 2 = "ld" ->
            let size_sext = String.sub mn 2 (String.length mn - 2) in
            let sext = size_sext.[String.length size_sext - 1] = 's' in
            let size = int_of_string (String.sub size_sext 0 (String.length size_sext - 1)) in
            (match ops with
            | [ d; mem ] ->
                let base, index, scale, off = parse_mem mem in
                Asm.emit asm
                  (if index >= 0 then Minst.Ldx { dst = reg_of d; base; index; scale; off; size; sext }
                   else Minst.Ld { dst = reg_of d; base; off; size; sext })
            | _ -> raise (Asm_error line))
        | _ when String.length mn > 2 && String.sub mn 0 2 = "st" ->
            let size = int_of_string (String.sub mn 2 (String.length mn - 2)) in
            (match ops with
            | [ s; mem ] ->
                let base, _, _, off = parse_mem mem in
                Asm.emit asm (Minst.St { src = reg_of s; base; off; size })
            | _ -> raise (Asm_error line))
        | _ when String.length mn > 3 && String.sub mn 0 3 = "ext" ->
            let spec = String.sub mn 3 (String.length mn - 3) in
            let signed = spec.[String.length spec - 1] = 's' in
            let bits = int_of_string (String.sub spec 0 (String.length spec - 1)) in
            (match ops with
            | [ d; s ] -> Asm.emit asm (Minst.Ext { dst = reg_of d; src = reg_of s; bits; signed })
            | _ -> raise (Asm_error line))
        | "mulws" | "mulwu" ->
            Asm.emit asm (Minst.Mul_wide { signed = mn = "mulws"; src = reg_of (List.hd ops) })
        | "mulhs" | "mulhu" -> (
            match ops with
            | [ d; a; b ] ->
                Asm.emit asm (Minst.Mul_hi { signed = mn = "mulhs"; dst = reg_of d; a = reg_of a; b = reg_of b })
            | _ -> raise (Asm_error line))
        | "divws" | "divwu" ->
            Asm.emit asm (Minst.Div { signed = mn = "divws"; src = reg_of (List.hd ops) })
        | "divs" | "divu" -> (
            match ops with
            | [ d; a; b ] ->
                Asm.emit asm (Minst.Div_rrr { signed = mn = "divs"; dst = reg_of d; a = reg_of a; b = reg_of b })
            | _ -> raise (Asm_error line))
        | _ when String.contains mn '.' -> (
            let head, suffix = dotted () in
            match head with
            | "j" -> Asm.jcc asm (cond_of_name suffix) (label_of (List.hd ops))
            | "set" -> Asm.emit asm (Minst.Setcc (cond_of_name suffix, reg_of (List.hd ops)))
            | "csel" -> (
                match ops with
                | [ d; a; b ] ->
                    Asm.emit asm
                      (Minst.Csel { cond = cond_of_name suffix; dst = reg_of d; a = reg_of a; b = reg_of b })
                | _ -> raise (Asm_error line))
            | _ -> raise (Asm_error ("unknown mnemonic " ^ mn)))
        | _ -> (
            (* generic alu: 2- or 3-operand *)
            let op = alu_of_name mn in
            match ops with
            | [ d; s ] when is_reg s -> Asm.emit asm (Minst.Alu_rr (op, reg_of d, reg_of s))
            | [ d; v ] -> Asm.emit asm (Minst.Alu_ri (op, reg_of d, imm v))
            | [ d; a; b ] when is_reg b -> Asm.emit asm (Minst.Alu_rrr (op, reg_of d, reg_of a, reg_of b))
            | [ d; a; v ] -> Asm.emit asm (Minst.Alu_rri (op, reg_of d, reg_of a, imm v))
            | _ -> raise (Asm_error line))
      end)
    lines;
  let text = Asm.finish asm in
  {
    Elf.o_text = text;
    o_syms =
      List.rev !symbols
      @ List.map (fun s -> { Elf.s_name = s; s_off = 0; s_size = 0; s_defined = false }) !externs;
    o_relocs = List.rev !relocs;
  }
