(** FastISel (Sec. V-B3b): a linear selector handling only values that fit
    in one machine register and a frequently-used subset of operations.
    On an unsupported instruction it falls back to SelectionDAG — for the
    remainder of the block in general, but only for the single affected
    instruction in the case of calls with unsupported types and
    unimplemented intrinsics. Fallbacks are counted by reason; the totals
    feed the statistics of Sec. V-B3b and the ablation experiments. *)

open Qcomp_vm

type verdict =
  | Ok
  | Fb_inst of Flow.fallback_reason
  | Fb_block of Flow.fallback_reason

let is_wide (ty : Lir.ty) = ty = Lir.I128
let is_pair (ty : Lir.ty) = ty = Lir.Pair

let canon_bits (ty : Lir.ty) =
  match ty with Lir.I8 -> 8 | Lir.I16 -> 16 | Lir.I32 -> 32 | _ -> 0

let rax = 0
let rdx = 2

let alu_of (iop : Lir.iop) =
  match iop with
  | Lir.Add -> Minst.Add
  | Lir.Sub -> Minst.Sub
  | Lir.Mul -> Minst.Mul
  | Lir.And -> Minst.And
  | Lir.Or -> Minst.Or
  | Lir.Xor -> Minst.Xor
  | Lir.Shl -> Minst.Shl
  | Lir.Lshr -> Minst.Shr
  | Lir.Ashr -> Minst.Sar
  | _ -> invalid_arg "not alu"

let cmp_to_cond (c : Qcomp_ir.Op.cmp) : Minst.cond =
  match c with
  | Qcomp_ir.Op.Eq -> Minst.Eq
  | Qcomp_ir.Op.Ne -> Minst.Ne
  | Qcomp_ir.Op.Slt -> Minst.Slt
  | Qcomp_ir.Op.Sle -> Minst.Sle
  | Qcomp_ir.Op.Sgt -> Minst.Sgt
  | Qcomp_ir.Op.Sge -> Minst.Sge
  | Qcomp_ir.Op.Ult -> Minst.Ult
  | Qcomp_ir.Op.Ule -> Minst.Ule
  | Qcomp_ir.Op.Ugt -> Minst.Ugt
  | Qcomp_ir.Op.Uge -> Minst.Uge

(* The GEP [i] as one lea: when the scale is an addressing-mode scale;
   any other scale is multiplied out first. *)
let select_gep (fl : Flow.t) (i : Lir.inst) =
  let push m = Flow.push fl (Mir.M m) in
  let d = Flow.inst_vreg fl i in
  let base = Flow.value_vreg fl i.Lir.operands.(0) in
  let scale, off = Lir.gep_scale_off i in
  let off = Int64.to_int off in
  match Flow.const_of i.Lir.operands.(1) with
  | Some 0L -> push (Minst.Lea { dst = d; base; index = -1; scale = 1; off })
  | _ ->
      let index = Flow.value_vreg fl i.Lir.operands.(1) in
      if List.mem scale [ 1; 2; 4; 8 ] then push (Minst.Lea { dst = d; base; index; scale; off })
      else begin
        let t = Mir.new_vreg fl.Flow.mir in
        push (Minst.Alu_rri (Minst.Mul, t, index, Int64.of_int scale));
        push (Minst.Lea { dst = d; base; index = t; scale = 1; off })
      end

(* As X86FastISel::X86SelectAddress looks through a GEP of the same
   block: a GEP whose every user is a load of its block that can read the
   whole address in one instruction is not selected, and each of those
   loads reads it ({!address_load}). x64 addresses
   [base + index * 1|2|4|8 + disp32], a64 [base + index lsl 0|log2 size]
   or [base + off]. *)
let foldable_gep (fl : Flow.t) (i : Lir.inst) =
  let scale, off = Lir.gep_scale_off i in
  let indexed = Flow.const_of i.Lir.operands.(1) <> Some 0L in
  let size (u : Lir.inst) = max 1 (Lir.ty_size_bits u.Lir.ity / 8) in
  i.Lir.users <> []
  && List.for_all
       (fun (u : Lir.inst) ->
         u.Lir.iop = Lir.Load
         && (match (u.Lir.parent, i.Lir.parent) with Some a, Some b -> a == b | _ -> false)
         && (not (is_wide u.Lir.ity)) && (not (is_pair u.Lir.ity))
         &&
         if Flow.is_x64 fl then Asm.fits_i32 off && ((not indexed) || List.mem scale [ 1; 2; 4; 8 ])
         else (not indexed) || (Int64.equal off 0L && (scale = 1 || scale = size u)))
       i.Lir.users

(* A load through the folded GEP [g]: its whole address in one load. *)
let address_load (fl : Flow.t) (g : Lir.inst) ~dst ~size ~sext =
  let push m = Flow.push fl (Mir.M m) in
  let vr v = Flow.value_vreg fl v in
  let scale, off = Lir.gep_scale_off g in
  let base = g.Lir.operands.(0) and index = g.Lir.operands.(1) in
  match Flow.const_of index with
  | Some 0L -> push (Minst.Ld { dst; base = vr base; off = Int64.to_int off; size; sext })
  | _ -> (
      match Flow.const_of base with
      | Some c when Flow.is_x64 fl && Asm.fits_i32 (Int64.add c off) ->
          push
            (Minst.Ldx
               { dst; base = -1; index = vr index; scale; off = Int64.to_int (Int64.add c off); size; sext })
      | _ -> push (Minst.Ldx { dst; base = vr base; index = vr index; scale; off = Int64.to_int off; size; sext }))

(** Try to select one instruction; emits MIR on success. [deferred] holds
    the GEPs of the block left to their loads. *)
let try_select (fl : Flow.t) deferred (i : Lir.inst) : verdict =
  let push m = Flow.push fl (Mir.M m) in
  let x64 = Flow.is_x64 fl in
  let mir = fl.Flow.mir in
  let vr v = Flow.value_vreg fl v in
  let dst () = Flow.inst_vreg fl i in
  let canonicalize ty d =
    let bits = canon_bits ty in
    if bits > 1 then push (Minst.Ext { dst = d; src = d; bits; signed = true })
  in
  let any_wide () =
    is_wide i.Lir.ity
    || Array.exists (fun v -> is_wide (Lir.value_ty v)) i.Lir.operands
  in
  let any_pair () =
    is_pair i.Lir.ity
    || Array.exists (fun v -> is_pair (Lir.value_ty v)) i.Lir.operands
  in
  if any_pair () then Fb_block Flow.Struct_pair
  else
    match i.Lir.iop with
    | Lir.Phi -> Ok (* handled by the driver *)
    | Lir.Freeze ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let d = dst () in
          push (Minst.Mov_rr (d, vr i.Lir.operands.(0)));
          Ok
        end
    | Lir.Add | Lir.Sub | Lir.Mul | Lir.And | Lir.Or | Lir.Xor | Lir.Shl
    | Lir.Lshr | Lir.Ashr ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let d = dst () in
          let a = vr i.Lir.operands.(0) in
          (match Flow.const_of i.Lir.operands.(1) with
          | Some c when Int64.of_int32 (Int64.to_int32 c) = c ->
              push (Minst.Alu_rri (alu_of i.Lir.iop, d, a, c))
          | _ ->
              let b = vr i.Lir.operands.(1) in
              push (Minst.Alu_rrr (alu_of i.Lir.iop, d, a, b)));
          canonicalize i.Lir.ity d;
          Ok
        end
    | Lir.Sdiv | Lir.Udiv | Lir.Srem | Lir.Urem ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let signed = i.Lir.iop = Lir.Sdiv || i.Lir.iop = Lir.Srem in
          let want_rem = i.Lir.iop = Lir.Srem || i.Lir.iop = Lir.Urem in
          let d = dst () in
          let a = vr i.Lir.operands.(0) and b = vr i.Lir.operands.(1) in
          if x64 then begin
            let p0 = Flow.len fl in
            push (Minst.Mov_rr (rax, a));
            if signed then begin
              push (Minst.Mov_rr (rdx, rax));
              push (Minst.Alu_ri (Minst.Sar, rdx, 63L))
            end
            else push (Minst.Mov_ri (rdx, 0L));
            push (Minst.Div { signed; src = b });
            push (Minst.Mov_rr (d, (if want_rem then rdx else rax)));
            Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rax;
            Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rdx
          end
          else if want_rem then begin
            let q = Mir.new_vreg mir in
            let t = Mir.new_vreg mir in
            push (Minst.Div_rrr { signed; dst = q; a; b });
            push (Minst.Alu_rrr (Minst.Mul, t, q, b));
            push (Minst.Alu_rrr (Minst.Sub, d, a, t))
          end
          else push (Minst.Div_rrr { signed; dst = d; a; b });
          canonicalize i.Lir.ity d;
          Ok
        end
    | Lir.Icmp pred ->
        if any_wide () then Fb_block Flow.Wide_int
        else if Lir.value_ty i.Lir.operands.(0) = Lir.I1 then
          (* comparisons directly on booleans: one of the remaining
             fallback classes the paper lists *)
          Fb_block Flow.Bool_ops
        else begin
          let a = vr i.Lir.operands.(0) in
          (match Flow.const_of i.Lir.operands.(1) with
          | Some c when Int64.of_int32 (Int64.to_int32 c) = c ->
              push (Minst.Cmp_ri (a, c))
          | _ -> push (Minst.Cmp_rr (a, vr i.Lir.operands.(1))));
          push (Minst.Setcc (cmp_to_cond pred, dst ()));
          Ok
        end
    | Lir.Fcmp pred ->
        push (Minst.Fcmp_rr (vr i.Lir.operands.(0), vr i.Lir.operands.(1)));
        push (Minst.Setcc (cmp_to_cond pred, dst ()));
        Ok
    | Lir.Trunc ->
        if is_wide (Lir.value_ty i.Lir.operands.(0)) then Fb_block Flow.Wide_int
        else begin
          let d = dst () in
          push (Minst.Mov_rr (d, vr i.Lir.operands.(0)));
          if i.Lir.ity = Lir.I1 then push (Minst.Alu_rri (Minst.And, d, d, 1L))
          else canonicalize i.Lir.ity d;
          Ok
        end
    | Lir.Zext ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let bits = Lir.ty_size_bits (Lir.value_ty i.Lir.operands.(0)) in
          let d = dst () in
          if bits >= 64 then push (Minst.Mov_rr (d, vr i.Lir.operands.(0)))
          else
            push (Minst.Ext { dst = d; src = vr i.Lir.operands.(0); bits; signed = false });
          Ok
        end
    | Lir.Sext ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          push (Minst.Mov_rr (dst (), vr i.Lir.operands.(0)));
          Ok
        end
    | Lir.Sitofp ->
        push (Minst.Cvt_si2f (dst (), vr i.Lir.operands.(0)));
        Ok
    | Lir.Fptosi ->
        push (Minst.Cvt_f2si (dst (), vr i.Lir.operands.(0)));
        Ok
    | Lir.Gep ->
        if foldable_gep fl i then deferred := i :: !deferred else select_gep fl i;
        Ok
    | Lir.Load ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let size = max 1 (Lir.ty_size_bits i.Lir.ity / 8) in
          let sext = i.Lir.ity <> Lir.I1 && size < 8 in
          (match i.Lir.operands.(0) with
          | Lir.Vinst g when List.memq g !deferred -> address_load fl g ~dst:(dst ()) ~size ~sext
          | addr -> push (Minst.Ld { dst = dst (); base = vr addr; off = 0; size; sext }));
          Ok
        end
    | Lir.Store ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let vty = Lir.value_ty i.Lir.operands.(0) in
          let size = max 1 (Lir.ty_size_bits vty / 8) in
          push
            (Minst.St { src = vr i.Lir.operands.(0); base = vr i.Lir.operands.(1); off = 0; size });
          Ok
        end
    | Lir.Select ->
        if any_wide () then Fb_block Flow.Wide_int
        else begin
          let d = dst () in
          let a = vr i.Lir.operands.(1) and b = vr i.Lir.operands.(2) in
          push (Minst.Cmp_ri (vr i.Lir.operands.(0), 0L));
          push (Minst.Csel { cond = Minst.Ne; dst = d; a; b });
          Ok
        end
    | Lir.Atomicrmw_add -> Fb_block Flow.Atomic
    | Lir.Extractvalue 1 -> (
        match i.Lir.operands.(0) with
        | Lir.Vinst call -> (
            match Hashtbl.find_opt fl.Flow.fast_ovf call.Lir.iid with
            | Some flag ->
                push (Minst.Mov_rr (dst (), flag));
                Ok
            | None -> Fb_inst Flow.Intrinsic_or_call)
        | _ -> Fb_block Flow.Bool_ops)
    | Lir.Extractvalue _ | Lir.Makepair | Lir.Pairof | Lir.Pairval ->
        Fb_block Flow.Struct_pair
    | Lir.Call (Lir.Intr intr) -> (
        match intr with
        | Lir.Sadd_ovf ty | Lir.Ssub_ovf ty | Lir.Smul_ovf ty
          when not (is_wide ty) ->
            let d = dst () in
            let flag = Mir.new_vreg mir in
            let op =
              match intr with
              | Lir.Sadd_ovf _ -> Minst.Add
              | Lir.Ssub_ovf _ -> Minst.Sub
              | _ -> Minst.Mul
            in
            let a = vr i.Lir.operands.(0) and b = vr i.Lir.operands.(1) in
            push (Minst.Alu_rrr (op, d, a, b));
            let bits = canon_bits ty in
            if bits = 0 then push (Minst.Setcc (Minst.Ov, flag))
            else begin
              let t = Mir.new_vreg mir in
              push (Minst.Ext { dst = t; src = d; bits; signed = true });
              push (Minst.Cmp_rr (t, d));
              push (Minst.Setcc (Minst.Ne, flag));
              push (Minst.Mov_rr (d, t))
            end;
            Hashtbl.replace fl.Flow.fast_ovf i.Lir.iid flag;
            Ok
        | Lir.Sadd_ovf _ | Lir.Ssub_ovf _ | Lir.Smul_ovf _ ->
            Fb_block Flow.Wide_int
        | Lir.Crc32 when fl.Flow.cfg.Flow.fastisel_crc32 ->
            (* the upstreamed FastISel support for the CRC32 intrinsic *)
            let d = dst () in
            push (Minst.Crc32_rrr (d, vr i.Lir.operands.(0), vr i.Lir.operands.(1)));
            Ok
        | Lir.Crc32 -> Fb_inst Flow.Intrinsic_or_call
        | Lir.Fshr -> Fb_inst Flow.Intrinsic_or_call)
    | Lir.Call _ when Array.length i.Lir.operands > 6 ->
        Fb_inst Flow.Intrinsic_or_call
    | Lir.Call _
      when is_wide i.Lir.ity
           || Array.exists (fun v -> is_wide (Lir.value_ty v)) i.Lir.operands ->
        (* calls with unsupported data types: single-instruction fallback *)
        Fb_inst Flow.Intrinsic_or_call
    | Lir.Call callee ->
        let sym =
          match callee with
          | Lir.Extern s -> fl.Flow.extern_name s
          | Lir.Named nm -> nm
          | Lir.Intr _ -> assert false
        in
        let arg_regs = fl.Flow.target.Target.arg_regs in
        let p0 = Flow.len fl in
        Array.iteri (fun k a -> push (Minst.Mov_rr (arg_regs.(k), vr a))) i.Lir.operands;
        Flow.push fl (Mir.Mcall { sym });
        let call_pos = Flow.len fl - 1 in
        Mir.record_call mir ~block:fl.Flow.cur ~pos:call_pos;
        Array.iteri
          (fun k _ ->
            Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:call_pos arg_regs.(k))
          i.Lir.operands;
        if i.Lir.ity <> Lir.Void then begin
          let r0 = fl.Flow.target.Target.ret_regs.(0) in
          push (Minst.Mov_rr (dst (), r0));
          Mir.reserve mir ~block:fl.Flow.cur ~from_pos:call_pos ~to_pos:(Flow.len fl - 1) r0
        end;
        Ok
    | Lir.Br ->
        Flow.push fl (Mir.M (Minst.Jmp i.Lir.targets.(0).Lir.bid));
        Ok
    | Lir.Condbr ->
        push (Minst.Cmp_ri (vr i.Lir.operands.(0), 0L));
        Flow.push fl (Mir.M (Minst.Jcc (Minst.Ne, i.Lir.targets.(0).Lir.bid)));
        Flow.push fl (Mir.M (Minst.Jmp i.Lir.targets.(1).Lir.bid));
        Ok
    | Lir.Ret ->
        if Array.length i.Lir.operands > 0 then begin
          if is_wide (Lir.value_ty i.Lir.operands.(0)) then Fb_block Flow.Wide_int
          else begin
            push (Minst.Mov_rr (fl.Flow.target.Target.ret_regs.(0), vr i.Lir.operands.(0)));
            push Minst.Ret;
            Ok
          end
        end
        else begin
          push Minst.Ret;
          Ok
        end
    | Lir.Unreachable ->
        push (Minst.Brk 0);
        Ok
    | Lir.Fadd | Lir.Fsub | Lir.Fmul | Lir.Fdiv ->
        let d = dst () in
        let fop =
          match i.Lir.iop with
          | Lir.Fadd -> Minst.Fadd
          | Lir.Fsub -> Minst.Fsub
          | Lir.Fmul -> Minst.Fmul
          | _ -> Minst.Fdiv
        in
        push (Minst.Falu_rrr (fop, d, vr i.Lir.operands.(0), vr i.Lir.operands.(1)));
        Ok

(** Select a block's instruction list, falling back to SelectionDAG as
    required. *)
let select_block (fl : Flow.t) (insts : Lir.inst list) =
  Hashtbl.reset fl.Flow.fast_ovf;
  let deferred = ref [] in
  (* before SelectionDAG takes [handed] over: a deferred GEP one of them
     reads is selected now *)
  let fall_back handed =
    let read, unread =
      List.partition (fun (g : Lir.inst) -> List.exists (fun u -> List.memq u handed) g.Lir.users) !deferred
    in
    List.iter (select_gep fl) (List.rev read);
    deferred := unread;
    Seldag.run fl handed
  in
  let rec go = function
    | [] -> ()
    | (i : Lir.inst) :: rest -> (
        match try_select fl deferred i with
        | Ok -> go rest
        | Fb_inst reason ->
            Flow.count_fallback fl.Flow.stats reason;
            (* hand the single instruction (plus its flag extracts, which
               belong to the same value) to SelectionDAG *)
            let extracts =
              List.filter
                (fun (r : Lir.inst) ->
                  (match r.Lir.iop with Lir.Extractvalue _ -> true | _ -> false)
                  && Array.exists
                       (fun v -> match v with Lir.Vinst d -> d == i | _ -> false)
                       r.Lir.operands)
                rest
            in
            fall_back (i :: extracts);
            go (List.filter (fun r -> not (List.memq r extracts)) rest)
        | Fb_block reason ->
            Flow.count_fallback fl.Flow.stats reason;
            fall_back (i :: rest))
  in
  go insts
