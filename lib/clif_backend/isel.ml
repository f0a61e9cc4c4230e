(** Cranelift-like instruction selection (Sec. VI-C2).

    Before the actual selection, three metadata passes run over the
    complete IR, as the paper describes: virtual-register assignment with
    register classes, partitioning by side-effecting instructions, and a
    use-count computation — the latter two decide which pure single-use
    definitions (constants, comparisons) may be sunk into their user by the
    tree-matching lowering. *)


open Qcomp_vm

(** A load's addressing mode: [base + index * scale + disp] over CIR
    values ([-1] when absent). [const_base] (a64): the base is the
    constant [disp], materialized at the load. *)
type amode = { base : int; index : int; scale : int; disp : int64; const_base : bool }

type prep = {
  vreg_lo : int array;  (** CIR value -> vreg *)
  vreg_hi : int array;  (** second vreg for i128 values, else -1 *)
  reg_class : int array;  (** 0 = int, 1 = float (paper: register classes) *)
  use_count : int array;  (** per CIR value *)
  effect_group : int array;  (** per CIR instruction *)
  folded : bool array;  (** per CIR instruction: sunk into its user *)
  amodes : (int, amode) Hashtbl.t;  (** per load instruction with one *)
  result_of : int array;  (** instruction -> its result value, -1 if none *)
}

type ctx = {
  cir : Cir.func;
  vc : Vcode.t;
  target : Target.t;
  rt_addr : string -> int64;
  p : prep;
  mutable cur : int;
  mutable trap_vblock : int;
}

let is_effectful (op : Cir.opcode) =
  match op with
  | Cir.Store | Cir.Call_indirect | Cir.Trap | Cir.Jump | Cir.Brif
  | Cir.Return | Cir.Sdiv | Cir.Udiv | Cir.Srem | Cir.Urem | Cir.Sadd_trap
  | Cir.Ssub_trap | Cir.Smul_trap ->
      true
  | _ -> false

(* ---- pass 1: virtual registers with classes ---- *)
let assign_vregs (cir : Cir.func) (vc : Vcode.t) =
  let n = cir.Cir.nvalues in
  let vreg_lo = Array.make n (-1) in
  let vreg_hi = Array.make n (-1) in
  let reg_class = Array.make n 0 in
  for v = 0 to n - 1 do
    vreg_lo.(v) <- Vcode.new_vreg vc;
    (match cir.Cir.value_ty.(v) with
    | Cir.I128 -> vreg_hi.(v) <- Vcode.new_vreg vc
    | Cir.F64 -> reg_class.(v) <- 1
    | _ -> ())
  done;
  (vreg_lo, vreg_hi, reg_class)

(* ---- pass 2: side-effect partition ---- *)
let partition (cir : Cir.func) =
  let groups = Array.make cir.Cir.ninsts 0 in
  let g = ref 0 in
  for b = 0 to cir.Cir.nblocks - 1 do
    incr g;
    Cir.iter_block_insts cir b (fun i ->
        groups.(i) <- !g;
        if is_effectful cir.Cir.op.(i) then incr g)
  done;
  groups

(* ---- pass 3: use counts (depth-first over the blocks) ---- *)
let count_uses (cir : Cir.func) =
  let counts = Array.make cir.Cir.nvalues 0 in
  for b = 0 to cir.Cir.nblocks - 1 do
    Cir.iter_block_insts cir b (fun i ->
        List.iter (fun a -> counts.(a) <- counts.(a) + 1) (Cir.inst_args cir i))
  done;
  counts

let fits_i32 (v : int64) = Int64.of_int32 (Int64.to_int32 v) = v

(* The address [v] of a load of [size] bytes at offset [off] as one
   addressing mode, as Cranelift's x64 [to_amode] and aarch64 [amode]
   rules match it: through single-use [iadd]s of the load's block,
   constants into the displacement and one [ishl] by 0-3 or [imul] by 1, 2,
   4 or 8 into the index; other values take the base, then the index.
   Returns the mode and the instructions it sinks, or [None] when it
   needs more registers or the target has no such form: x64 takes
   [base + index * scale + disp32], a64 [base + index lsl 0|log2 size]
   or [base + disp]. *)
let match_amode (cir : Cir.func) ~(target : Target.t) ~use_count ~block_of ~block v ~size ~off =
  let def v = cir.Cir.value_def.(v) in
  let const v =
    let d = def v in
    if d >= 0 && cir.Cir.op.(d) = Cir.Iconst then Some cir.Cir.imm.(d) else None
  in
  (* pure, single use, in the load's block: may be sunk into it *)
  let sinkable v = def v >= 0 && use_count.(v) = 1 && block_of.(def v) = block in
  let register (am, sunk) v =
    if am.base < 0 then Some ({ am with base = v }, sunk)
    else if am.index < 0 then Some ({ am with index = v; scale = 1 }, sunk)
    else None
  in
  let rec go ((am, sunk) as acc) v depth =
    let d = def v in
    if d < 0 then register acc v
    else
      match (cir.Cir.op.(d), Cir.inst_args cir d) with
      | Cir.Iconst, _ ->
          Some ({ am with disp = Int64.add am.disp cir.Cir.imm.(d) }, if sinkable v then d :: sunk else sunk)
      | Cir.Iadd, [ p; q ] when sinkable v && depth < 4 && cir.Cir.ity.(d) <> Cir.I128 -> (
          match Option.bind (go acc p (depth + 1)) (fun acc -> go acc q (depth + 1)) with
          | Some (am, sunk) -> Some (am, d :: sunk)
          | None -> register acc v)
      | Cir.Ishl, [ y; k ] when sinkable v && am.index < 0 -> (
          match const k with
          | Some k when k >= 0L && k <= 3L ->
              Some ({ am with index = y; scale = 1 lsl Int64.to_int k }, d :: sunk)
          | _ -> register acc v)
      | Cir.Imul, [ y; c ] when sinkable v && am.index < 0 -> (
          match const c with
          | Some (1L | 2L | 4L | 8L as c) -> Some ({ am with index = y; scale = Int64.to_int c }, d :: sunk)
          | _ -> register acc v)
      | _ -> register acc v
  in
  let start = { base = -1; index = -1; scale = 1; disp = Int64.of_int off; const_base = false } in
  match go (start, []) v 0 with
  | None | Some ({ base = -1; index = -1; _ }, _) -> None
  | Some (am, sunk) -> (
      match target.Target.arch with
      | Target.X64 ->
          if not (fits_i32 am.disp) then None
          else if am.base < 0 && am.scale = 1 then Some ({ am with base = am.index; index = -1 }, sunk)
          else Some (am, sunk)
      | Target.A64 ->
          if am.index < 0 then Some (am, sunk)
          else if am.scale <> 1 && am.scale <> size then None
          else if am.base < 0 then Some ({ am with const_base = true }, sunk)
          else if Int64.equal am.disp 0L then Some (am, sunk)
          else None)

(* Tree-matching decisions: single-use pure defs sunk into users. *)
let mark_folds (cir : Cir.func) ~(target : Target.t) use_count effect_group =
  let folded = Array.make cir.Cir.ninsts false in
  let amodes = Hashtbl.create 16 in
  (* filled as the walk goes: a load's operands are defined before it *)
  let block_of = Array.make cir.Cir.ninsts (-1) in
  let def v = cir.Cir.value_def.(v) in
  let imm_fits v =
    let d = def v in
    d >= 0 && cir.Cir.op.(d) = Cir.Iconst
    &&
    match target.Target.arch with
    | Target.X64 -> fits_i32 cir.Cir.imm.(d)
    | Target.A64 -> cir.Cir.imm.(d) >= 0L && cir.Cir.imm.(d) <= 4095L
  in
  let try_fold_const v =
    if imm_fits v && use_count.(v) = 1 then folded.(def v) <- true
  in
  let is_single_use_cmp v same_group_of =
    let d = def v in
    d >= 0
    && (cir.Cir.op.(d) = Cir.Icmp || cir.Cir.op.(d) = Cir.Fcmp)
    && use_count.(v) = 1
    && cir.Cir.value_ty.(Cir.inst_args cir d |> List.hd) <> Cir.I128
    && effect_group.(d) = effect_group.(same_group_of)
  in
  for b = 0 to cir.Cir.nblocks - 1 do
    Cir.iter_block_insts cir b (fun i ->
        block_of.(i) <- b;
        match cir.Cir.op.(i) with
        | Cir.Iadd | Cir.Isub | Cir.Band | Cir.Bor | Cir.Bxor | Cir.Imul
          when cir.Cir.ity.(i) <> Cir.I128 -> (
            match Cir.inst_args cir i with
            | [ _; rhs ] -> try_fold_const rhs
            | _ -> ())
        | Cir.Ishl | Cir.Ushr | Cir.Sshr | Cir.Rotr -> (
            match Cir.inst_args cir i with
            | [ _; amt ] -> (
                let d = def amt in
                if d >= 0 && cir.Cir.op.(d) = Cir.Iconst && use_count.(amt) = 1
                then folded.(d) <- true)
            | _ -> ())
        | Cir.Icmp when cir.Cir.ity.(i) <> Cir.I128 -> (
            match Cir.inst_args cir i with
            | [ _; rhs ] -> try_fold_const rhs
            | _ -> ())
        | Cir.Brif -> (
            match Cir.inst_args cir i with
            | cond :: _ when is_single_use_cmp cond i -> folded.(def cond) <- true
            | _ -> ())
        | Cir.Select -> (
            match Cir.inst_args cir i with
            | cond :: _ when is_single_use_cmp cond i -> folded.(def cond) <- true
            | _ -> ())
        | Cir.Load when cir.Cir.ity.(i) <> Cir.I128 -> (
            let size = 1 lsl (cir.Cir.aux.(i) land 7) in
            match
              match_amode cir ~target ~use_count ~block_of ~block:b
                (List.hd (Cir.inst_args cir i))
                ~size ~off:(Int64.to_int cir.Cir.imm.(i))
            with
            | Some (am, sunk) ->
                Hashtbl.replace amodes i am;
                List.iter (fun d -> folded.(d) <- true) sunk
            | None -> ())
        | Cir.Call_indirect -> (
            (* the hard-wired callee constant is always sunk *)
            match Cir.inst_args cir i with
            | callee :: _ ->
                let d = def callee in
                if d >= 0 && cir.Cir.op.(d) = Cir.Iconst && use_count.(callee) = 1
                then folded.(d) <- true
            | _ -> ())
        | _ -> ())
  done;
  (folded, amodes)

let prepare (cir : Cir.func) (vc : Vcode.t) ~target : prep =
  let vreg_lo, vreg_hi, reg_class = assign_vregs cir vc in
  let effect_group = partition cir in
  let use_count = count_uses cir in
  let folded, amodes = mark_folds cir ~target use_count effect_group in
  let result_of = Array.make cir.Cir.ninsts (-1) in
  for v = 0 to cir.Cir.nvalues - 1 do
    if cir.Cir.value_def.(v) >= 0 then result_of.(cir.Cir.value_def.(v)) <- v
  done;
  { vreg_lo; vreg_hi; reg_class; use_count; effect_group; folded; amodes; result_of }

(* ------------------------------------------------------------------ *)
(* Lowering *)

let push ctx i = Vcode.push ctx.vc ctx.cur i
let len ctx = Vcode.block_len ctx.vc ctx.cur

let reg ctx v = ctx.p.vreg_lo.(v)
let reg_hi ctx v = ctx.p.vreg_hi.(v)

(** Constant immediate when the defining iconst was folded into this use. *)
let folded_imm ctx v =
  let d = ctx.cir.Cir.value_def.(v) in
  if d >= 0 && ctx.p.folded.(d) then Some ctx.cir.Cir.imm.(d) else None

(** Immediate value of any iconst def (used for shift amounts); traces
    through extensions and reductions. *)
let rec const_of ctx v =
  let d = ctx.cir.Cir.value_def.(v) in
  if d < 0 then None
  else
    match ctx.cir.Cir.op.(d) with
    | Cir.Iconst -> Some ctx.cir.Cir.imm.(d)
    | Cir.Sextend | Cir.Uextend | Cir.Ireduce | Cir.Iconcat ->
        const_of ctx (List.hd (Cir.inst_args ctx.cir d))
    | _ -> None

let trap_vblock ctx =
  if ctx.trap_vblock < 0 then begin
    let b = Vcode.add_block ctx.vc in
    let saved = ctx.cur in
    ctx.cur <- b;
    push ctx (Minst.Mov_ri (ctx.target.Target.scratch, ctx.rt_addr "umbra_throwOverflow"));
    push ctx (Minst.Call_ind ctx.target.Target.scratch);
    push ctx (Minst.Brk 1);
    ctx.cur <- saved;
    ctx.trap_vblock <- b
  end;
  ctx.trap_vblock

let canon_bits (ty : Cir.ty) =
  match ty with Cir.I8 -> 8 | Cir.I16 -> 16 | Cir.I32 -> 32 | _ -> 0

let canonicalize ctx ty d =
  let bits = canon_bits ty in
  if bits <> 0 then push ctx (Minst.Ext { dst = d; src = d; bits; signed = true })

let is_x64 ctx = ctx.target.Target.arch = Target.X64

(* dst = a op b over vregs, respecting two-address form on X64 *)
let alu3 ctx op d a b =
  if is_x64 ctx then begin
    push ctx (Minst.Mov_rr (d, a));
    push ctx (Minst.Alu_rr (op, d, b))
  end
  else push ctx (Minst.Alu_rrr (op, d, a, b))

let alu3i ctx op d a (imm : int64) =
  if is_x64 ctx then begin
    push ctx (Minst.Mov_rr (d, a));
    push ctx (Minst.Alu_ri (op, d, imm))
  end
  else push ctx (Minst.Alu_rri (op, d, a, imm))

let alu_code (op : Cir.opcode) : Minst.alu =
  match op with
  | Cir.Iadd -> Minst.Add
  | Cir.Isub -> Minst.Sub
  | Cir.Imul -> Minst.Mul
  | Cir.Band -> Minst.And
  | Cir.Bor -> Minst.Or
  | Cir.Bxor -> Minst.Xor
  | Cir.Ishl -> Minst.Shl
  | Cir.Ushr -> Minst.Shr
  | Cir.Sshr -> Minst.Sar
  | Cir.Rotr -> Minst.Ror
  | _ -> invalid_arg "not an alu opcode"

(* X64 fixed-register multiply/divide sequences with reservations. *)
let rax = 0
let rdx = 2

let fixed_mul_x64 ctx ~signed ~dst_lo ~dst_hi a b =
  let p0 = len ctx in
  push ctx (Minst.Mov_rr (rax, a));
  push ctx (Minst.Mul_wide { signed; src = b });
  let pc = len ctx - 1 in
  push ctx (Minst.Mov_rr (dst_lo, rax));
  if dst_hi >= 0 then push ctx (Minst.Mov_rr (dst_hi, rdx));
  Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:p0 ~to_pos:(len ctx - 1) rax;
  Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:p0 ~to_pos:(len ctx - 1) rdx;
  ignore pc

let fixed_div_x64 ctx ~signed ~want_rem ~dst a b =
  let p0 = len ctx in
  push ctx (Minst.Mov_rr (rax, a));
  if signed then begin
    push ctx (Minst.Mov_rr (rdx, rax));
    push ctx (Minst.Alu_ri (Minst.Sar, rdx, 63L))
  end
  else push ctx (Minst.Mov_ri (rdx, 0L));
  push ctx (Minst.Div { signed; src = b });
  push ctx (Minst.Mov_rr (dst, (if want_rem then rdx else rax)));
  Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:p0 ~to_pos:(len ctx - 1) rax;
  Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:p0 ~to_pos:(len ctx - 1) rdx

(* emit a comparison of two CIR values (non-i128), setting flags *)
let emit_cmp_flags ctx a b =
  match folded_imm ctx b with
  | Some imm -> push ctx (Minst.Cmp_ri (reg ctx a, imm))
  | None -> (
      match const_of ctx b with
      | Some imm when fits_i32 imm -> push ctx (Minst.Cmp_ri (reg ctx a, imm))
      | _ -> push ctx (Minst.Cmp_rr (reg ctx a, reg ctx b)))

(* i128 comparison producing a boolean in vreg [d] *)
let emit_cmp128 ctx cond d a b =
  let alo = reg ctx a and ahi = reg_hi ctx a in
  let blo = reg ctx b and bhi = reg_hi ctx b in
  let t = Vcode.new_vreg ctx.vc in
  match cond with
  | Cir.Eq | Cir.Ne ->
      push ctx (Minst.Cmp_rr (alo, blo));
      push ctx (Minst.Setcc (Minst.Eq, t));
      push ctx (Minst.Cmp_rr (ahi, bhi));
      push ctx (Minst.Setcc (Minst.Eq, d));
      alu3 ctx Minst.And d d t;
      if cond = Cir.Ne then
        if is_x64 ctx then push ctx (Minst.Alu_ri (Minst.Xor, d, 1L))
        else push ctx (Minst.Alu_rri (Minst.Xor, d, d, 1L))
  | _ ->
      let unsigned_pred =
        match cond with
        | Cir.Slt | Cir.Ult -> Minst.Ult
        | Cir.Sle | Cir.Ule -> Minst.Ule
        | Cir.Sgt | Cir.Ugt -> Minst.Ugt
        | Cir.Sge | Cir.Uge -> Minst.Uge
        | _ -> assert false
      in
      let hi_pred =
        match cond with
        | Cir.Slt | Cir.Sle -> Minst.Slt
        | Cir.Sgt | Cir.Sge -> Minst.Sgt
        | Cir.Ult | Cir.Ule -> Minst.Ult
        | Cir.Ugt | Cir.Uge -> Minst.Ugt
        | _ -> assert false
      in
      push ctx (Minst.Cmp_rr (alo, blo));
      push ctx (Minst.Setcc (unsigned_pred, t));
      push ctx (Minst.Cmp_rr (ahi, bhi));
      push ctx (Minst.Setcc (hi_pred, d));
      (* equal hi words: the unsigned lo comparison decides *)
      if is_x64 ctx then push ctx (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t })
      else push ctx (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t })

(* parallel moves for block arguments: stage through fresh vregs *)
let edge_moves ctx args params =
  let staged =
    List.map2
      (fun a pv ->
        let tlo = Vcode.new_vreg ctx.vc in
        push ctx (Minst.Mov_rr (tlo, reg ctx a));
        let thi =
          if reg_hi ctx a >= 0 then begin
            let t = Vcode.new_vreg ctx.vc in
            push ctx (Minst.Mov_rr (t, reg_hi ctx a));
            t
          end
          else -1
        in
        (tlo, thi, pv))
      args params
  in
  List.iter
    (fun (tlo, thi, pv) ->
      push ctx (Minst.Mov_rr (reg ctx pv, tlo));
      if thi >= 0 then push ctx (Minst.Mov_rr (reg_hi ctx pv, thi)))
    staged

(* call sequence *)
let lower_call ctx i =
  let cir = ctx.cir in
  let args = Cir.inst_args cir i in
  let callee, args = (List.hd args, List.tl args) in
  let arg_regs = ctx.target.Target.arg_regs in
  let setup_start = len ctx in
  let k = ref 0 in
  let used_pregs = ref [] in
  List.iter
    (fun a ->
      let p = arg_regs.(!k) in
      used_pregs := p :: !used_pregs;
      (match folded_imm ctx a with
      | Some imm -> push ctx (Minst.Mov_ri (p, imm))
      | None -> push ctx (Minst.Mov_rr (p, reg ctx a)));
      incr k;
      if reg_hi ctx a >= 0 then begin
        let p2 = arg_regs.(!k) in
        used_pregs := p2 :: !used_pregs;
        push ctx (Minst.Mov_rr (p2, reg_hi ctx a));
        incr k
      end)
    args;
  (* hard-wired callee address *)
  (match const_of ctx callee with
  | Some addr -> push ctx (Minst.Mov_ri (ctx.target.Target.scratch, addr))
  | None -> push ctx (Minst.Mov_rr (ctx.target.Target.scratch, reg ctx callee)));
  push ctx (Minst.Call_ind ctx.target.Target.scratch);
  let call_pos = len ctx - 1 in
  Vcode.record_call ctx.vc ~block:ctx.cur ~pos:call_pos;
  List.iter
    (fun p -> Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:setup_start ~to_pos:call_pos p)
    !used_pregs;
  if cir.Cir.aux.(i) = 1 then begin
    let rv = ctx.p.result_of.(i) in
    let r0 = ctx.target.Target.ret_regs.(0) and r1 = ctx.target.Target.ret_regs.(1) in
    push ctx (Minst.Mov_rr (reg ctx rv, r0));
    if reg_hi ctx rv >= 0 then push ctx (Minst.Mov_rr (reg_hi ctx rv, r1));
    Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:call_pos ~to_pos:(len ctx - 1) r0;
    Vcode.reserve ctx.vc ~block:ctx.cur ~from_pos:call_pos ~to_pos:(len ctx - 1) r1
  end

(* i128 helpers over vreg pairs *)
let mov128 ctx dlo dhi slo shi =
  push ctx (Minst.Mov_rr (dlo, slo));
  push ctx (Minst.Mov_rr (dhi, shi))

let lower_addsub128 ctx ~sub ~trap d_lo d_hi alo ahi blo bhi =
  if is_x64 ctx then begin
    push ctx (Minst.Mov_rr (d_lo, alo));
    push ctx (Minst.Mov_rr (d_hi, ahi));
    push ctx (Minst.Alu_rr ((if sub then Minst.Sub else Minst.Add), d_lo, blo));
    push ctx (Minst.Alu_rr ((if sub then Minst.Sbb else Minst.Adc), d_hi, bhi))
  end
  else begin
    push ctx (Minst.Alu_rrr ((if sub then Minst.Sub else Minst.Add), d_lo, alo, blo));
    push ctx (Minst.Alu_rrr ((if sub then Minst.Sbb else Minst.Adc), d_hi, ahi, bhi))
  end;
  if trap then
    let tb = trap_vblock ctx in
    push ctx (Minst.Jcc (Minst.Ov, tb))

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* Main per-instruction lowering. *)
let lower_inst ctx i =
  let cir = ctx.cir in
  let ty = cir.Cir.ity.(i) in
  let args = Cir.inst_args cir i in
  let res = ctx.p.result_of.(i) in
  let d () = reg ctx res in
  let d_hi () = reg_hi ctx res in
  match cir.Cir.op.(i) with
  | Cir.Nop -> ()
  | Cir.Iconst ->
      push ctx (Minst.Mov_ri (d (), cir.Cir.imm.(i)));
      if ty = Cir.I128 then push ctx (Minst.Mov_ri (d_hi (), Int64.shift_right cir.Cir.imm.(i) 63))
  | Cir.Iadd | Cir.Isub | Cir.Band | Cir.Bor | Cir.Bxor -> (
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      if ty = Cir.I128 then begin
        match cir.Cir.op.(i) with
        | Cir.Iadd | Cir.Isub ->
            lower_addsub128 ctx
              ~sub:(cir.Cir.op.(i) = Cir.Isub)
              ~trap:false (d ()) (d_hi ()) (reg ctx a) (reg_hi ctx a)
              (reg ctx b) (reg_hi ctx b)
        | _ ->
            let op = alu_code cir.Cir.op.(i) in
            alu3 ctx op (d ()) (reg ctx a) (reg ctx b);
            alu3 ctx op (d_hi ()) (reg_hi ctx a) (reg_hi ctx b)
      end
      else begin
        (match folded_imm ctx b with
        | Some imm -> alu3i ctx (alu_code cir.Cir.op.(i)) (d ()) (reg ctx a) imm
        | None -> alu3 ctx (alu_code cir.Cir.op.(i)) (d ()) (reg ctx a) (reg ctx b));
        canonicalize ctx ty (d ())
      end)
  | Cir.Imul -> (
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      if ty = Cir.I128 then begin
        (* truncated 128-bit multiply *)
        if is_x64 ctx then begin
          let t = Vcode.new_vreg ctx.vc in
          fixed_mul_x64 ctx ~signed:false ~dst_lo:(d ()) ~dst_hi:(d_hi ())
            (reg ctx a) (reg ctx b);
          alu3 ctx Minst.Mul t (reg_hi ctx a) (reg ctx b);
          push ctx (Minst.Alu_rr (Minst.Add, d_hi (), t));
          alu3 ctx Minst.Mul t (reg ctx a) (reg_hi ctx b);
          push ctx (Minst.Alu_rr (Minst.Add, d_hi (), t))
        end
        else begin
          let t = Vcode.new_vreg ctx.vc in
          push ctx (Minst.Mul_hi { signed = false; dst = d_hi (); a = reg ctx a; b = reg ctx b });
          push ctx (Minst.Alu_rrr (Minst.Mul, d (), reg ctx a, reg ctx b));
          push ctx (Minst.Alu_rrr (Minst.Mul, t, reg_hi ctx a, reg ctx b));
          push ctx (Minst.Alu_rrr (Minst.Add, d_hi (), d_hi (), t));
          push ctx (Minst.Alu_rrr (Minst.Mul, t, reg ctx a, reg_hi ctx b));
          push ctx (Minst.Alu_rrr (Minst.Add, d_hi (), d_hi (), t))
        end
      end
      else begin
        (match folded_imm ctx b with
        | Some imm -> alu3i ctx Minst.Mul (d ()) (reg ctx a) imm
        | None -> alu3 ctx Minst.Mul (d ()) (reg ctx a) (reg ctx b));
        canonicalize ctx ty (d ())
      end)
  | Cir.Sdiv | Cir.Udiv | Cir.Srem | Cir.Urem ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let signed = cir.Cir.op.(i) = Cir.Sdiv || cir.Cir.op.(i) = Cir.Srem in
      let want_rem = cir.Cir.op.(i) = Cir.Srem || cir.Cir.op.(i) = Cir.Urem in
      if ty = Cir.I128 then unsupported "i128 division";
      if is_x64 ctx then
        fixed_div_x64 ctx ~signed ~want_rem ~dst:(d ()) (reg ctx a) (reg ctx b)
      else if want_rem then begin
        let q = Vcode.new_vreg ctx.vc in
        let t = Vcode.new_vreg ctx.vc in
        push ctx (Minst.Div_rrr { signed; dst = q; a = reg ctx a; b = reg ctx b });
        push ctx (Minst.Alu_rrr (Minst.Mul, t, q, reg ctx b));
        push ctx (Minst.Alu_rrr (Minst.Sub, d (), reg ctx a, t))
      end
      else push ctx (Minst.Div_rrr { signed; dst = d (); a = reg ctx a; b = reg ctx b });
      canonicalize ctx ty (d ())
  | Cir.Ishl | Cir.Ushr | Cir.Sshr | Cir.Rotr -> (
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let op = alu_code cir.Cir.op.(i) in
      if ty = Cir.I128 then begin
        (* constant amounts only (hash lowering) *)
        let amt =
          match const_of ctx b with
          | Some v -> Int64.to_int v land 127
          | None -> unsupported "dynamic 128-bit shift"
        in
        match (cir.Cir.op.(i), amt) with
        | _, 0 -> mov128 ctx (d ()) (d_hi ()) (reg ctx a) (reg_hi ctx a)
        | Cir.Ushr, n when n >= 64 ->
            push ctx (Minst.Mov_rr (d (), reg_hi ctx a));
            if n > 64 then alu3i ctx Minst.Shr (d ()) (d ()) (Int64.of_int (n - 64));
            push ctx (Minst.Mov_ri (d_hi (), 0L))
        | Cir.Ishl, n when n >= 64 ->
            push ctx (Minst.Mov_rr (d_hi (), reg ctx a));
            if n > 64 then alu3i ctx Minst.Shl (d_hi ()) (d_hi ()) (Int64.of_int (n - 64));
            push ctx (Minst.Mov_ri (d (), 0L))
        | Cir.Ushr, n ->
            let t = Vcode.new_vreg ctx.vc in
            alu3i ctx Minst.Shr (d ()) (reg ctx a) (Int64.of_int n);
            alu3i ctx Minst.Shl t (reg_hi ctx a) (Int64.of_int (64 - n));
            push ctx (Minst.Alu_rr (Minst.Or, d (), t));
            alu3i ctx Minst.Shr (d_hi ()) (reg_hi ctx a) (Int64.of_int n)
        | Cir.Ishl, n ->
            let t = Vcode.new_vreg ctx.vc in
            alu3i ctx Minst.Shl (d_hi ()) (reg_hi ctx a) (Int64.of_int n);
            alu3i ctx Minst.Shr t (reg ctx a) (Int64.of_int (64 - n));
            push ctx (Minst.Alu_rr (Minst.Or, d_hi (), t));
            alu3i ctx Minst.Shl (d ()) (reg ctx a) (Int64.of_int n)
        | _ -> unsupported "i128 shift form"
      end
      else begin
        (match const_of ctx b with
        | Some imm -> alu3i ctx op (d ()) (reg ctx a) imm
        | None -> alu3 ctx op (d ()) (reg ctx a) (reg ctx b));
        canonicalize ctx ty (d ())
      end)
  | Cir.Icmp ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let cond = Frontend.cond_of_code cir.Cir.aux.(i) in
      if cir.Cir.value_ty.(a) = Cir.I128 then emit_cmp128 ctx cond (d ()) a b
      else begin
        emit_cmp_flags ctx a b;
        push ctx (Minst.Setcc (Cir.cond_to_minst cond, d ()))
      end
  | Cir.Fcmp ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let cond = Frontend.cond_of_code cir.Cir.aux.(i) in
      push ctx (Minst.Fcmp_rr (reg ctx a, reg ctx b));
      push ctx (Minst.Setcc (Cir.cond_to_minst cond, d ()))
  | Cir.Uextend -> (
      let a = List.hd args in
      let bits = Cir.ty_bits cir.Cir.value_ty.(a) in
      match ty with
      | Cir.I128 ->
          push ctx (Minst.Ext { dst = d (); src = reg ctx a; bits = min bits 64; signed = false });
          push ctx (Minst.Mov_ri (d_hi (), 0L))
      | _ ->
          if bits >= 64 then push ctx (Minst.Mov_rr (d (), reg ctx a))
          else push ctx (Minst.Ext { dst = d (); src = reg ctx a; bits; signed = false }))
  | Cir.Sextend -> (
      let a = List.hd args in
      match ty with
      | Cir.I128 ->
          (* canonical narrow values are already sign-extended *)
          push ctx (Minst.Mov_rr (d (), reg ctx a));
          push ctx (Minst.Mov_rr (d_hi (), reg ctx a));
          alu3i ctx Minst.Sar (d_hi ()) (d_hi ()) 63L
      | _ -> push ctx (Minst.Mov_rr (d (), reg ctx a)))
  | Cir.Ireduce ->
      let a = List.hd args in
      push ctx (Minst.Mov_rr (d (), reg ctx a));
      (match ty with
      | Cir.I8 when cir.Cir.value_ty.(a) <> Cir.I8 ->
          (* booleans reduce to 0/1-preserving i8 *)
          canonicalize ctx ty (d ())
      | _ -> canonicalize ctx ty (d ()))
  | Cir.Select -> (
      let c, a, b = match args with [ c; a; b ] -> (c, a, b) | _ -> assert false in
      let cd = cir.Cir.value_def.(c) in
      let cond_minst =
        if cd >= 0 && ctx.p.folded.(cd) then begin
          (* fused comparison: re-emit the compare right here *)
          let ca, cb =
            match Cir.inst_args cir cd with [ x; y ] -> (x, y) | _ -> assert false
          in
          (match cir.Cir.op.(cd) with
          | Cir.Fcmp -> push ctx (Minst.Fcmp_rr (reg ctx ca, reg ctx cb))
          | _ -> emit_cmp_flags ctx ca cb);
          Cir.cond_to_minst (Frontend.cond_of_code cir.Cir.aux.(cd))
        end
        else begin
          push ctx (Minst.Cmp_ri (reg ctx c, 0L));
          Minst.Ne
        end
      in
      if ty = Cir.I128 then begin
        if is_x64 ctx then begin
          push ctx (Minst.Mov_rr (d (), reg ctx a));
          push ctx (Minst.Csel { cond = cond_minst; dst = d (); a = d (); b = reg ctx b });
          push ctx (Minst.Mov_rr (d_hi (), reg_hi ctx a));
          push ctx (Minst.Csel { cond = cond_minst; dst = d_hi (); a = d_hi (); b = reg_hi ctx b })
        end
        else begin
          push ctx (Minst.Csel { cond = cond_minst; dst = d (); a = reg ctx a; b = reg ctx b });
          push ctx (Minst.Csel { cond = cond_minst; dst = d_hi (); a = reg_hi ctx a; b = reg_hi ctx b })
        end
      end
      else if is_x64 ctx then begin
        push ctx (Minst.Mov_rr (d (), reg ctx a));
        push ctx (Minst.Csel { cond = cond_minst; dst = d (); a = d (); b = reg ctx b })
      end
      else push ctx (Minst.Csel { cond = cond_minst; dst = d (); a = reg ctx a; b = reg ctx b }))
  | Cir.Load ->
      let a = List.hd args in
      let off = Int64.to_int cir.Cir.imm.(i) in
      let size = 1 lsl (cir.Cir.aux.(i) land 7) in
      let sext = cir.Cir.aux.(i) land 8 <> 0 in
      if ty = Cir.I128 then begin
        push ctx (Minst.Ld { dst = d (); base = reg ctx a; off; size = 8; sext = false });
        push ctx (Minst.Ld { dst = d_hi (); base = reg ctx a; off = off + 8; size = 8; sext = false })
      end
      else begin
        let sext = sext && size < 8 in
        match Hashtbl.find_opt ctx.p.amodes i with
        | None -> push ctx (Minst.Ld { dst = d (); base = reg ctx a; off; size; sext })
        | Some { base; index = -1; disp; _ } ->
            push ctx (Minst.Ld { dst = d (); base = reg ctx base; off = Int64.to_int disp; size; sext })
        | Some { const_base = true; index; scale; disp; _ } ->
            let t = Vcode.new_vreg ctx.vc in
            push ctx (Minst.Mov_ri (t, disp));
            push ctx (Minst.Ldx { dst = d (); base = t; index = reg ctx index; scale; off = 0; size; sext })
        | Some { base; index; scale; disp; _ } ->
            let base = if base >= 0 then reg ctx base else -1 in
            push ctx
              (Minst.Ldx { dst = d (); base; index = reg ctx index; scale; off = Int64.to_int disp; size; sext })
      end
  | Cir.Store ->
      let v, a = match args with [ v; a ] -> (v, a) | _ -> assert false in
      let off = Int64.to_int cir.Cir.imm.(i) in
      let size = 1 lsl (cir.Cir.aux.(i) land 7) in
      if cir.Cir.value_ty.(v) = Cir.I128 then begin
        push ctx (Minst.St { src = reg ctx v; base = reg ctx a; off; size = 8 });
        push ctx (Minst.St { src = reg_hi ctx v; base = reg ctx a; off = off + 8; size = 8 })
      end
      else push ctx (Minst.St { src = reg ctx v; base = reg ctx a; off; size = min size 8 })
  | Cir.Call_indirect -> lower_call ctx i
  | Cir.Jump ->
      let target = cir.Cir.aux.(i) in
      edge_moves ctx args (Array.to_list cir.Cir.block_params.(target));
      push ctx (Minst.Jmp target);
      ctx.vc.Vcode.succs.(ctx.cur) <- target :: ctx.vc.Vcode.succs.(ctx.cur)
  | Cir.Brif -> (
      let cond = List.hd args in
      let tb = cir.Cir.aux.(i) and eb = cir.Cir.aux2.(i) in
      let cd = cir.Cir.value_def.(cond) in
      (if cd >= 0 && ctx.p.folded.(cd) then begin
         let ca, cb =
           match Cir.inst_args cir cd with [ x; y ] -> (x, y) | _ -> assert false
         in
         (match cir.Cir.op.(cd) with
         | Cir.Fcmp -> push ctx (Minst.Fcmp_rr (reg ctx ca, reg ctx cb))
         | _ -> emit_cmp_flags ctx ca cb);
         push ctx (Minst.Jcc (Cir.cond_to_minst (Frontend.cond_of_code cir.Cir.aux.(cd)), tb))
       end
       else begin
         push ctx (Minst.Cmp_ri (reg ctx cond, 0L));
         push ctx (Minst.Jcc (Minst.Ne, tb))
       end);
      push ctx (Minst.Jmp eb);
      ctx.vc.Vcode.succs.(ctx.cur) <- tb :: eb :: ctx.vc.Vcode.succs.(ctx.cur))
  | Cir.Return ->
      (match args with
      | [] -> ()
      | [ v ] ->
          push ctx (Minst.Mov_rr (ctx.target.Target.ret_regs.(0), reg ctx v));
          if reg_hi ctx v >= 0 then
            push ctx (Minst.Mov_rr (ctx.target.Target.ret_regs.(1), reg_hi ctx v))
      | _ -> unsupported "multiple return values");
      push ctx Minst.Ret
  | Cir.Trap -> push ctx (Minst.Brk (Int64.to_int cir.Cir.imm.(i)))
  | Cir.Umulhi | Cir.Smulhi ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let signed = cir.Cir.op.(i) = Cir.Smulhi in
      if is_x64 ctx then begin
        let tmp = Vcode.new_vreg ctx.vc in
        fixed_mul_x64 ctx ~signed ~dst_lo:tmp ~dst_hi:(d ()) (reg ctx a) (reg ctx b)
      end
      else push ctx (Minst.Mul_hi { signed; dst = d (); a = reg ctx a; b = reg ctx b })
  | Cir.Mul_full ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let signed = cir.Cir.aux.(i) = 1 in
      if is_x64 ctx then
        fixed_mul_x64 ctx ~signed ~dst_lo:(d ()) ~dst_hi:(d_hi ()) (reg ctx a) (reg ctx b)
      else begin
        push ctx (Minst.Alu_rrr (Minst.Mul, d (), reg ctx a, reg ctx b));
        push ctx (Minst.Mul_hi { signed; dst = d_hi (); a = reg ctx a; b = reg ctx b })
      end
  | Cir.Crc32c ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      if is_x64 ctx then begin
        push ctx (Minst.Mov_rr (d (), reg ctx a));
        push ctx (Minst.Crc32_rr (d (), reg ctx b))
      end
      else push ctx (Minst.Crc32_rrr (d (), reg ctx a, reg ctx b))
  | Cir.Sadd_trap | Cir.Ssub_trap -> (
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let sub = cir.Cir.op.(i) = Cir.Ssub_trap in
      match ty with
      | Cir.I128 ->
          lower_addsub128 ctx ~sub ~trap:true (d ()) (d_hi ()) (reg ctx a)
            (reg_hi ctx a) (reg ctx b) (reg_hi ctx b)
      | Cir.I64 ->
          alu3 ctx (if sub then Minst.Sub else Minst.Add) (d ()) (reg ctx a) (reg ctx b);
          push ctx (Minst.Jcc (Minst.Ov, trap_vblock ctx))
      | _ ->
          (* canonical narrow: 64-bit op then canonicality check *)
          let t = Vcode.new_vreg ctx.vc in
          alu3 ctx (if sub then Minst.Sub else Minst.Add) (d ()) (reg ctx a) (reg ctx b);
          push ctx (Minst.Ext { dst = t; src = d (); bits = canon_bits ty; signed = true });
          push ctx (Minst.Cmp_rr (t, d ()));
          push ctx (Minst.Jcc (Minst.Ne, trap_vblock ctx));
          push ctx (Minst.Mov_rr (d (), t)))
  | Cir.Smul_trap -> (
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      match ty with
      | Cir.I64 ->
          alu3 ctx Minst.Mul (d ()) (reg ctx a) (reg ctx b);
          push ctx (Minst.Jcc (Minst.Ov, trap_vblock ctx))
      | _ ->
          let t = Vcode.new_vreg ctx.vc in
          alu3 ctx Minst.Mul (d ()) (reg ctx a) (reg ctx b);
          push ctx (Minst.Ext { dst = t; src = d (); bits = canon_bits ty; signed = true });
          push ctx (Minst.Cmp_rr (t, d ()));
          push ctx (Minst.Jcc (Minst.Ne, trap_vblock ctx));
          push ctx (Minst.Mov_rr (d (), t)))
  | Cir.Fadd | Cir.Fsub | Cir.Fmul | Cir.Fdiv ->
      let a, b = match args with [ a; b ] -> (a, b) | _ -> assert false in
      let fop =
        match cir.Cir.op.(i) with
        | Cir.Fadd -> Minst.Fadd
        | Cir.Fsub -> Minst.Fsub
        | Cir.Fmul -> Minst.Fmul
        | _ -> Minst.Fdiv
      in
      if is_x64 ctx then begin
        push ctx (Minst.Mov_rr (d (), reg ctx a));
        push ctx (Minst.Falu_rr (fop, d (), reg ctx b))
      end
      else push ctx (Minst.Falu_rrr (fop, d (), reg ctx a, reg ctx b))
  | Cir.Fcvt_to_sint -> push ctx (Minst.Cvt_f2si (d (), reg ctx (List.hd args)))
  | Cir.Fcvt_from_sint -> push ctx (Minst.Cvt_si2f (d (), reg ctx (List.hd args)))
  | Cir.Isplit_lo -> push ctx (Minst.Mov_rr (d (), reg ctx (List.hd args)))
  | Cir.Isplit_hi -> push ctx (Minst.Mov_rr (d (), reg_hi ctx (List.hd args)))
  | Cir.Iconcat ->
      let lo, hi = match args with [ lo; hi ] -> (lo, hi) | _ -> assert false in
      push ctx (Minst.Mov_rr (d (), reg ctx lo));
      push ctx (Minst.Mov_rr (d_hi (), reg ctx hi))

(** Lower a whole CIR function into a fresh VCode. *)
let lower (cir : Cir.func) ~(target : Target.t) ~rt_addr ~(prep : prep)
    (vc : Vcode.t) =
  let ctx = { cir; vc; target; rt_addr; p = prep; cur = 0; trap_vblock = -1 } in
  (* entry block: bind function parameters from argument registers *)
  ctx.cur <- 0;
  let argk = ref 0 in
  Array.iter
    (fun pv ->
      push ctx (Minst.Mov_rr (reg ctx pv, target.Target.arg_regs.(!argk)));
      incr argk;
      if reg_hi ctx pv >= 0 then begin
        push ctx (Minst.Mov_rr (reg_hi ctx pv, target.Target.arg_regs.(!argk)));
        incr argk
      end)
    cir.Cir.block_params.(0);
  (if !argk > 0 then
     let setup_end = len ctx - 1 in
     Array.iteri
       (fun idx p ->
         if idx < !argk then
           Vcode.reserve vc ~block:0 ~from_pos:0 ~to_pos:setup_end p)
       target.Target.arg_regs);
  for b = 0 to cir.Cir.nblocks - 1 do
    ctx.cur <- b;
    (* a folded instruction is sunk into its user, which emits it *)
    Cir.iter_block_insts cir b (fun i -> if not prep.folded.(i) then lower_inst ctx i)
  done
