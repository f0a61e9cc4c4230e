(** GlobalISel (Sec. V-B3c): the multi-pass selector.

    The pipeline translates LIR into generic Machine IR (gMIR), then runs
    the Legalizer, a combiner, RegBankSelect and InstructionSelect — each
    pass iterating over and rewriting the entire IR, which is exactly the
    cost structure the paper measures (fast mode 2.7x slower than FastISel,
    optimized mode 1.4x faster than SelectionDAG). *)

open Qcomp_support
open Qcomp_vm

(* Generic opcodes (G_* in LLVM). Wide (128-bit) forms exist until the
   Legalizer expands them. *)
type gop =
  | G_const of int64
  | G_copy  (** src0 -> dst0 *)
  | G_add
  | G_sub
  | G_mul
  | G_sdiv
  | G_udiv
  | G_srem
  | G_urem
  | G_and
  | G_or
  | G_xor
  | G_shl
  | G_lshr
  | G_ashr
  | G_rotr
  | G_icmp of Qcomp_ir.Op.cmp
  | G_fcmp of Qcomp_ir.Op.cmp
  | G_zext of int  (** source bits *)
  | G_sext of int
  | G_trunc of int  (** destination bits *)
  | G_select
  | G_load of { size : int; sext : bool }
  | G_store of { size : int }
  | G_ptr_add
  | G_crc32
  | G_uaddo  (** dst0 = sum, dst1 = carry/overflow flag vreg *)
  | G_saddo
  | G_ssubo
  | G_smulo
  | G_uadde  (** add with carry-in: src2 = carry vreg *)
  | G_usube
  | G_mulh of bool  (** signed *)
  | G_call of string
  | G_br of int
  | G_brcond of { target : int; fallthrough : int }
  | G_ret
  | G_trap
  | G_fbin of Minst.falu
  | G_sitofp
  | G_fptosi
  | G_phi of (int * int) array  (** survives to the shared Mphi *)
  (* target-specific legalization products *)
  | G_icmp128 of Qcomp_ir.Op.cmp  (** srcs: lo0 hi0 lo1 hi1 *)
  | G_load_hi  (** load of the high half, offset +8 *)
  | G_store_hi

type ginst = {
  mutable gop : gop;
  mutable dsts : int array;  (** vregs *)
  mutable srcs : int array;
  mutable wide : bool;  (** operates on 128-bit values *)
  mutable bits : int;  (** result width (canonicalization of narrow ops) *)
}

type gfunc = {
  gblocks : ginst Vec.t array;
  mutable gsuccs : int list array;
  pair_hi : (int, int) Hashtbl.t;  (** lo vreg -> hi vreg of wide values *)
}

let dummy_ginst = { gop = G_trap; dsts = [||]; srcs = [||]; wide = false; bits = 64 }

(* ---------------- IRTranslator ---------------- *)

(* Wide LIR values get a vreg PAIR from the start (lo from vreg_lo, hi from
   vreg_hi); before legalization, wide ginsts reference only the lo vregs
   and carry [wide = true]. *)
let translate (fl : Flow.t) : gfunc =
  let lir = fl.Flow.lir in
  let nb = Vec.length lir.Lir.blocks in
  let g =
    {
      gblocks = Array.init nb (fun _ -> Vec.create ~dummy:dummy_ginst ());
      gsuccs = Array.make nb [];
      pair_hi = Hashtbl.create 32;
    }
  in
  let cur = ref 0 in
  let push i = ignore (Vec.push g.gblocks.(!cur) i) in
  let is_wide ty = ty = Lir.I128 || ty = Lir.Pair in
  (* value -> vreg (lo lane), materializing constants; wide values get
     their hi partner recorded in [pair_hi] *)
  let value_vreg (v : Lir.value) =
    match v with
    | Lir.Vinst i ->
        let lo = Flow.inst_vreg fl i in
        if is_wide i.Lir.ity then
          Hashtbl.replace g.pair_hi lo (Flow.inst_vreg_hi fl i);
        lo
    | Lir.Varg (k, ty) ->
        let lo = Flow.arg_vreg fl k in
        if is_wide ty then Hashtbl.replace g.pair_hi lo (Flow.arg_vreg_hi fl k);
        lo
    | Lir.Vconst (_, c) ->
        let r = Mir.new_vreg fl.Flow.mir in
        push { gop = G_const c; dsts = [| r |]; srcs = [||]; wide = false; bits = 64; };
        r
    | Lir.Vconst128 c ->
        let lo = Mir.new_vreg fl.Flow.mir in
        let hi = Mir.new_vreg fl.Flow.mir in
        push { gop = G_const (I128.to_int64 c); dsts = [| lo |]; srcs = [||]; wide = false; bits = 64; };
        push
          {
            gop = G_const (I128.to_int64 (I128.shift_right_logical c 64));
            dsts = [| hi |];
            srcs = [||];
            wide = false; bits = 64;
          };
        Hashtbl.replace g.pair_hi lo hi;
        lo
  in
  (* wide results also register their hi lane *)
  let wide_dst (i : Lir.inst) =
    let lo = Flow.inst_vreg fl i in
    if is_wide i.Lir.ity then Hashtbl.replace g.pair_hi lo (Flow.inst_vreg_hi fl i);
    lo
  in
  let bin_g (i : Lir.inst) gop =
    let a = value_vreg i.Lir.operands.(0) and b = value_vreg i.Lir.operands.(1) in
    push
      {
        gop;
        dsts = [| wide_dst i |];
        srcs = [| a; b |];
        wide = is_wide i.Lir.ity || is_wide (Lir.value_ty i.Lir.operands.(0));
        bits = min 64 (Lir.ty_size_bits i.Lir.ity);
      }
  in
  Vec.iter
    (fun (b : Lir.block) ->
      cur := b.Lir.bid;
      Lir.iter_insts b (fun i ->
          match i.Lir.iop with
          | Lir.Phi ->
              (* constant incoming values are materialized in the
                 predecessor (the phi copies are inserted at its end);
                 note predecessors may not be translated yet, so constants
                 land at their block's current end, which still precedes
                 the terminator that will be appended later or, for
                 already-translated blocks, is fixed up by placing the
                 constant before the terminator during phi elimination *)
              let is_gterm (gi : ginst) =
                match gi.gop with
                | G_br _ | G_brcond _ | G_ret | G_trap -> true
                | _ -> false
              in
              let push_before_term pred gi =
                let blk = g.gblocks.(pred) in
                let n = Vec.length blk in
                let rec find k =
                  if k > 0 && is_gterm (Vec.get blk (k - 1)) then find (k - 1) else k
                in
                let at = find n in
                let nv = Vec.create ~dummy:dummy_ginst () in
                for k = 0 to at - 1 do
                  ignore (Vec.push nv (Vec.get blk k))
                done;
                ignore (Vec.push nv gi);
                for k = at to n - 1 do
                  ignore (Vec.push nv (Vec.get blk k))
                done;
                g.gblocks.(pred) <- nv
              in
              let incoming_vreg pred (v : Lir.value) =
                match v with
                | Lir.Vconst (_, c) ->
                    let r = Mir.new_vreg fl.Flow.mir in
                    push_before_term pred
                      { gop = G_const c; dsts = [| r |]; srcs = [||]; wide = false; bits = 64 };
                    r
                | Lir.Vconst128 c ->
                    let lo = Mir.new_vreg fl.Flow.mir in
                    let hi = Mir.new_vreg fl.Flow.mir in
                    push_before_term pred
                      { gop = G_const (I128.to_int64 c); dsts = [| lo |]; srcs = [||]; wide = false; bits = 64 };
                    push_before_term pred
                      { gop = G_const (I128.to_int64 (I128.shift_right_logical c 64));
                        dsts = [| hi |]; srcs = [||]; wide = false; bits = 64 };
                    Hashtbl.replace g.pair_hi lo hi;
                    lo
                | other -> value_vreg other
              in
              let incoming =
                Array.mapi
                  (fun k v ->
                    let pb = i.Lir.phi_blocks.(k).Lir.bid in
                    (pb, incoming_vreg pb v))
                  i.Lir.operands
              in
              push
                {
                  gop = G_phi incoming;
                  dsts = [| wide_dst i |];
                  srcs = [||];
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Add -> bin_g i G_add
          | Lir.Sub -> bin_g i G_sub
          | Lir.Mul -> bin_g i G_mul
          | Lir.Sdiv -> bin_g i G_sdiv
          | Lir.Udiv -> bin_g i G_udiv
          | Lir.Srem -> bin_g i G_srem
          | Lir.Urem -> bin_g i G_urem
          | Lir.And -> bin_g i G_and
          | Lir.Or -> bin_g i G_or
          | Lir.Xor -> bin_g i G_xor
          | Lir.Shl -> bin_g i G_shl
          | Lir.Lshr -> bin_g i G_lshr
          | Lir.Ashr -> bin_g i G_ashr
          | Lir.Icmp pred -> bin_g i (G_icmp pred)
          | Lir.Fcmp pred -> bin_g i (G_fcmp pred)
          | Lir.Trunc ->
              push
                {
                  gop = G_trunc (Lir.ty_size_bits i.Lir.ity);
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = is_wide (Lir.value_ty i.Lir.operands.(0)); bits = 64;
                }
          | Lir.Zext ->
              push
                {
                  gop = G_zext (Lir.ty_size_bits (Lir.value_ty i.Lir.operands.(0)));
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Sext ->
              push
                {
                  gop = G_sext (Lir.ty_size_bits (Lir.value_ty i.Lir.operands.(0)));
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Sitofp ->
              push { gop = G_sitofp; dsts = [| wide_dst i |]; srcs = [| value_vreg i.Lir.operands.(0) |]; wide = false; bits = 64; }
          | Lir.Fptosi ->
              push { gop = G_fptosi; dsts = [| wide_dst i |]; srcs = [| value_vreg i.Lir.operands.(0) |]; wide = false; bits = 64; }
          | Lir.Gep -> (
              (* as LLVM's IRTranslator: the index scaled by G_SHL (or
                 G_MUL), then one G_PTR_ADD per non-zero term *)
              let g1 gop srcs =
                let d = Mir.new_vreg fl.Flow.mir in
                push { gop; dsts = [| d |]; srcs; wide = false; bits = 64 };
                d
              in
              let const c = g1 (G_const c) [||] in
              let dst = wide_dst i in
              let put gop srcs = push { gop; dsts = [| dst |]; srcs; wide = false; bits = 64 } in
              let scale, off = Lir.gep_scale_off i in
              let base = value_vreg i.Lir.operands.(0) in
              let scaled =
                match i.Lir.operands.(1) with
                | Lir.Vconst (_, 0L) -> None
                | index -> (
                    let index = value_vreg index in
                    match Lir.scale_shift scale with
                    | Some 0 -> Some index
                    | Some k -> Some (g1 G_shl [| index; const (Int64.of_int k) |])
                    | None -> Some (g1 G_mul [| index; const (Int64.of_int scale) |]))
              in
              match (scaled, Int64.equal off 0L) with
              | None, true -> put G_copy [| base |]
              | None, false -> put G_ptr_add [| base; const off |]
              | Some s, true -> put G_ptr_add [| base; s |]
              | Some s, false -> put G_ptr_add [| g1 G_ptr_add [| base; s |]; const off |])
          | Lir.Load ->
              let size = max 1 (Lir.ty_size_bits i.Lir.ity / 8) in
              push
                {
                  gop = G_load { size = min size 16; sext = i.Lir.ity <> Lir.I1 && size < 8 };
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Store ->
              let size = max 1 (Lir.ty_size_bits (Lir.value_ty i.Lir.operands.(0)) / 8) in
              push
                {
                  gop = G_store { size = min size 16 };
                  dsts = [||];
                  srcs = [| value_vreg i.Lir.operands.(0); value_vreg i.Lir.operands.(1) |];
                  wide = is_wide (Lir.value_ty i.Lir.operands.(0)); bits = 64;
                }
          | Lir.Select ->
              push
                {
                  gop = G_select;
                  dsts = [| wide_dst i |];
                  srcs = Array.map value_vreg i.Lir.operands;
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Call (Lir.Intr intr) -> (
              match intr with
              | Lir.Crc32 -> bin_g i G_crc32
              | Lir.Fshr ->
                  push
                    {
                      gop = G_rotr;
                      dsts = [| wide_dst i |];
                      srcs = [| value_vreg i.Lir.operands.(0); value_vreg i.Lir.operands.(2) |];
                      wide = false; bits = 64;
                    }
              | Lir.Sadd_ovf _ | Lir.Ssub_ovf _ | Lir.Smul_ovf _ ->
                  let flag = Mir.new_vreg fl.Flow.mir in
                  Hashtbl.replace fl.Flow.gisel_ovf i.Lir.iid flag;
                  let gop =
                    match intr with
                    | Lir.Sadd_ovf _ -> G_saddo
                    | Lir.Ssub_ovf _ -> G_ssubo
                    | _ -> G_smulo
                  in
                  push
                    {
                      gop;
                      dsts = [| wide_dst i; flag |];
                      srcs =
                        [| value_vreg i.Lir.operands.(0); value_vreg i.Lir.operands.(1) |];
                      wide = is_wide i.Lir.ity; bits = 64;
                    })
          | Lir.Extractvalue 1 -> (
              match i.Lir.operands.(0) with
              | Lir.Vinst call ->
                  let flag =
                    match Hashtbl.find_opt fl.Flow.gisel_ovf call.Lir.iid with
                    | Some f -> f
                    | None -> failwith "gisel: flag of unknown intrinsic"
                  in
                  push
                    {
                      gop = G_copy;
                      dsts = [| wide_dst i |];
                      srcs = [| flag |];
                      wide = false; bits = 64;
                    }
              | _ -> failwith "gisel: extractvalue of non-call")
          | Lir.Extractvalue _ | Lir.Makepair | Lir.Pairof | Lir.Pairval ->
              (* struct values: copies between pair representations *)
              push
                {
                  gop = G_copy;
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = true; bits = 64;
                }
          | Lir.Freeze ->
              push
                {
                  gop = G_copy;
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Call callee ->
              let sym =
                match callee with
                | Lir.Extern s -> fl.Flow.extern_name s
                | Lir.Named nm -> nm
                | Lir.Intr _ -> assert false
              in
              let dsts = if i.Lir.ity = Lir.Void then [||] else [| wide_dst i |] in
              push
                {
                  gop = G_call sym;
                  dsts;
                  srcs = Array.map value_vreg i.Lir.operands;
                  wide = is_wide i.Lir.ity; bits = 64;
                }
          | Lir.Atomicrmw_add ->
              let size = max 1 (Lir.ty_size_bits i.Lir.ity / 8) in
              let t = Mir.new_vreg fl.Flow.mir in
              push
                {
                  gop = G_load { size; sext = size < 8 };
                  dsts = [| wide_dst i |];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = false; bits = 64;
                };
              push
                {
                  gop = G_add;
                  dsts = [| t |];
                  srcs = [| Flow.inst_vreg fl i; value_vreg i.Lir.operands.(1) |];
                  wide = false; bits = 64;
                };
              push
                {
                  gop = G_store { size };
                  dsts = [||];
                  srcs = [| t; value_vreg i.Lir.operands.(0) |];
                  wide = false; bits = 64;
                }
          | Lir.Br ->
              g.gsuccs.(b.Lir.bid) <- [ i.Lir.targets.(0).Lir.bid ];
              push { gop = G_br i.Lir.targets.(0).Lir.bid; dsts = [||]; srcs = [||]; wide = false; bits = 64; }
          | Lir.Condbr ->
              g.gsuccs.(b.Lir.bid) <- [ i.Lir.targets.(0).Lir.bid; i.Lir.targets.(1).Lir.bid ];
              push
                {
                  gop =
                    G_brcond
                      { target = i.Lir.targets.(0).Lir.bid; fallthrough = i.Lir.targets.(1).Lir.bid };
                  dsts = [||];
                  srcs = [| value_vreg i.Lir.operands.(0) |];
                  wide = false; bits = 64;
                }
          | Lir.Ret ->
              push
                {
                  gop = G_ret;
                  dsts = [||];
                  srcs = Array.map value_vreg i.Lir.operands;
                  wide =
                    Array.length i.Lir.operands > 0
                    && is_wide (Lir.value_ty i.Lir.operands.(0)); bits = 64;
                }
          | Lir.Unreachable -> push { gop = G_trap; dsts = [||]; srcs = [||]; wide = false; bits = 64; }
          | Lir.Fadd -> bin_g i (G_fbin Minst.Fadd)
          | Lir.Fsub -> bin_g i (G_fbin Minst.Fsub)
          | Lir.Fmul -> bin_g i (G_fbin Minst.Fmul)
          | Lir.Fdiv -> bin_g i (G_fbin Minst.Fdiv)))
    lir.Lir.blocks;
  g

(* ---------------- Legalizer ---------------- *)

(* Every rule rewrites one wide generic instruction into legal narrow ones.
   The pass iterates over and rebuilds the whole IR (the multi-pass cost
   the paper attributes to GlobalISel). *)
let legalize (fl : Flow.t) (g : gfunc) =
  let mir = fl.Flow.mir in
  let hi_of lo =
    match Hashtbl.find_opt g.pair_hi lo with
    | Some h -> h
    | None ->
        let h = Mir.new_vreg mir in
        Hashtbl.replace g.pair_hi lo h;
        h
  in
  (* constant values recorded for shift legalization *)
  let const_val = Hashtbl.create 32 in
  Array.iter
    (fun blk ->
      Vec.iter
        (fun (i : ginst) ->
          match i.gop with
          | G_const c -> Hashtbl.replace const_val i.dsts.(0) c
          | G_copy | G_sext _ | G_zext _ | G_trunc _ -> (
              match Hashtbl.find_opt const_val i.srcs.(0) with
              | Some c -> Hashtbl.replace const_val i.dsts.(0) c
              | None -> ())
          | _ -> ())
        blk)
    g.gblocks;
  Array.iteri
    (fun bi blk ->
      let out = Vec.create ~dummy:dummy_ginst () in
      let push i = ignore (Vec.push out i) in
      let fresh () = Mir.new_vreg mir in
      Vec.iter
        (fun (i : ginst) ->
          if not i.wide then push i
          else
            match i.gop with
            | G_add | G_sub | G_saddo | G_ssubo ->
                let sub = i.gop = G_sub || i.gop = G_ssubo in
                let flag = if Array.length i.dsts > 1 then i.dsts.(1) else -1 in
                let a = i.srcs.(0) and b = i.srcs.(1) in
                let d = i.dsts.(0) in
                let carry = fresh () in
                push
                  {
                    gop = (if sub then G_usube else G_uadde);
                    dsts = [| d; carry |];
                    srcs = [| a; b; -1 |];
                    wide = false;
                    bits = 64;
                  };
                push
                  {
                    gop = (if sub then G_usube else G_uadde);
                    dsts = [| hi_of d; (if flag >= 0 then flag else fresh ()) |];
                    srcs = [| hi_of a; hi_of b; carry |];
                    wide = false;
                    bits = 64;
                  }
            | G_mul ->
                (* full 128-bit product from 64-bit pieces *)
                let a = i.srcs.(0) and b = i.srcs.(1) in
                let d = i.dsts.(0) in
                let t1 = fresh () and t2 = fresh () in
                push { gop = G_mulh false; dsts = [| hi_of d |]; srcs = [| a; b |]; wide = false; bits = 64 };
                push { gop = G_mul; dsts = [| d |]; srcs = [| a; b |]; wide = false; bits = 64 };
                push { gop = G_mul; dsts = [| t1 |]; srcs = [| hi_of a; b |]; wide = false; bits = 64 };
                push { gop = G_add; dsts = [| t2 |]; srcs = [| hi_of d; t1 |]; wide = false; bits = 64 };
                push { gop = G_mul; dsts = [| t1 |]; srcs = [| a; hi_of b |]; wide = false; bits = 64 };
                push { gop = G_add; dsts = [| hi_of d |]; srcs = [| t2; t1 |]; wide = false; bits = 64 }
            | G_and | G_or | G_xor ->
                let a = i.srcs.(0) and b = i.srcs.(1) and d = i.dsts.(0) in
                push { gop = i.gop; dsts = [| d |]; srcs = [| a; b |]; wide = false; bits = 64 };
                push { gop = i.gop; dsts = [| hi_of d |]; srcs = [| hi_of a; hi_of b |]; wide = false; bits = 64 }
            | G_icmp pred ->
                push
                  {
                    gop = G_icmp128 pred;
                    dsts = i.dsts;
                    srcs = [| i.srcs.(0); hi_of i.srcs.(0); i.srcs.(1); hi_of i.srcs.(1) |];
                    wide = false;
                    bits = 64;
                  }
            | G_select ->
                let c = i.srcs.(0) and a = i.srcs.(1) and b = i.srcs.(2) in
                let d = i.dsts.(0) in
                push { gop = G_select; dsts = [| d |]; srcs = [| c; a; b |]; wide = false; bits = 64 };
                push
                  {
                    gop = G_select;
                    dsts = [| hi_of d |];
                    srcs = [| c; hi_of a; hi_of b |];
                    wide = false;
                    bits = 64;
                  }
            | G_zext _ ->
                push { gop = G_copy; dsts = [| i.dsts.(0) |]; srcs = [| i.srcs.(0) |]; wide = false; bits = 64 };
                push { gop = G_const 0L; dsts = [| hi_of i.dsts.(0) |]; srcs = [||]; wide = false; bits = 64 }
            | G_sext _ ->
                let c63 = fresh () in
                push { gop = G_copy; dsts = [| i.dsts.(0) |]; srcs = [| i.srcs.(0) |]; wide = false; bits = 64 };
                push { gop = G_const 63L; dsts = [| c63 |]; srcs = [||]; wide = false; bits = 64 };
                push
                  {
                    gop = G_ashr;
                    dsts = [| hi_of i.dsts.(0) |];
                    srcs = [| i.srcs.(0); c63 |];
                    wide = false;
                    bits = 64;
                  }
            | G_trunc bits ->
                push { gop = G_copy; dsts = [| i.dsts.(0) |]; srcs = [| i.srcs.(0) |]; wide = false; bits }
            | G_shl | G_lshr | G_ashr -> (
                let amt =
                  match Hashtbl.find_opt const_val i.srcs.(1) with
                  | Some c -> Int64.to_int c land 127
                  | None -> failwith "gisel: dynamic 128-bit shift"
                in
                let a = i.srcs.(0) and d = i.dsts.(0) in
                match (i.gop, amt) with
                | _, 0 ->
                    push { gop = G_copy; dsts = [| d |]; srcs = [| a |]; wide = false; bits = 64 };
                    push { gop = G_copy; dsts = [| hi_of d |]; srcs = [| hi_of a |]; wide = false; bits = 64 }
                | G_lshr, n when n >= 64 ->
                    let c = fresh () in
                    push { gop = G_const (Int64.of_int (n - 64)); dsts = [| c |]; srcs = [||]; wide = false; bits = 64 };
                    push { gop = G_lshr; dsts = [| d |]; srcs = [| hi_of a; c |]; wide = false; bits = 64 };
                    push { gop = G_const 0L; dsts = [| hi_of d |]; srcs = [||]; wide = false; bits = 64 }
                | G_shl, n when n >= 64 ->
                    let c = fresh () in
                    push { gop = G_const (Int64.of_int (n - 64)); dsts = [| c |]; srcs = [||]; wide = false; bits = 64 };
                    push { gop = G_shl; dsts = [| hi_of d |]; srcs = [| a; c |]; wide = false; bits = 64 };
                    push { gop = G_const 0L; dsts = [| d |]; srcs = [||]; wide = false; bits = 64 }
                | _ -> failwith "gisel: unsupported 128-bit shift form")
            | G_load { size = 16; _ } ->
                push
                  {
                    gop = G_load { size = 8; sext = false };
                    dsts = [| i.dsts.(0) |];
                    srcs = [| i.srcs.(0) |];
                    wide = false;
                    bits = 64;
                  };
                push
                  {
                    gop = G_load_hi;
                    dsts = [| hi_of i.dsts.(0) |];
                    srcs = [| i.srcs.(0) |];
                    wide = false;
                    bits = 64;
                  }
            | G_store { size = 16 } ->
                push
                  {
                    gop = G_store { size = 8 };
                    dsts = [||];
                    srcs = [| i.srcs.(0); i.srcs.(1) |];
                    wide = false;
                    bits = 64;
                  };
                push
                  {
                    gop = G_store_hi;
                    dsts = [||];
                    srcs = [| hi_of i.srcs.(0); i.srcs.(1) |];
                    wide = false;
                    bits = 64;
                  }
            | G_copy ->
                push { gop = G_copy; dsts = [| i.dsts.(0) |]; srcs = [| i.srcs.(0) |]; wide = false; bits = 64 };
                push
                  {
                    gop = G_copy;
                    dsts = [| hi_of i.dsts.(0) |];
                    srcs = [| hi_of i.srcs.(0) |];
                    wide = false;
                    bits = 64;
                  }
            | G_phi incoming ->
                push { gop = G_phi incoming; dsts = [| i.dsts.(0) |]; srcs = [||]; wide = false; bits = 64 };
                push
                  {
                    gop = G_phi (Array.map (fun (pb, v) -> (pb, hi_of v)) incoming);
                    dsts = [| hi_of i.dsts.(0) |];
                    srcs = [||];
                    wide = false;
                    bits = 64;
                  }
            | G_call _ | G_ret ->
                (* calls/returns keep wide operands; selection expands them *)
                push i
            | _ -> push i)
        blk;
      g.gblocks.(bi) <- out)
    g.gblocks

(* ---------------- combiner ---------------- *)

(* A modest generic combiner: constant folding of adds and compares. Like
   LLVM's, it is a worklist pass that re-runs until no rule fires — the
   fixpoint iteration is a real part of GlobalISel's compile cost. *)
let combine (g : gfunc) =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 4 do
    changed := false;
    incr rounds;
    let const_val = Hashtbl.create 32 in
    Array.iter
      (fun blk ->
        Vec.iter
          (fun (i : ginst) ->
            match i.gop with
            | G_const c -> Hashtbl.replace const_val i.dsts.(0) c
            | G_add when not i.wide -> (
                match
                  ( Hashtbl.find_opt const_val i.srcs.(0),
                    Hashtbl.find_opt const_val i.srcs.(1) )
                with
                | Some a, Some b ->
                    i.gop <- G_const (Int64.add a b);
                    i.srcs <- [||];
                    changed := true
                | _ -> ())
            | _ -> ())
          blk)
      g.gblocks
  done

(* ---------------- RegBankSelect ---------------- *)

let reg_bank_select (fl : Flow.t) (g : gfunc) =
  (* assign a bank to every operand: one full pass over the IR *)
  let banks = Array.make (fl.Flow.mir.Mir.num_vregs + 1024) 0 in
  Array.iter
    (fun blk ->
      Vec.iter
        (fun (i : ginst) ->
          Array.iter
            (fun v -> if v >= Mir.vreg_base && v - Mir.vreg_base < Array.length banks then banks.(v - Mir.vreg_base) <- (match i.gop with G_fbin _ | G_fcmp _ -> 1 | _ -> 0))
            i.dsts;
          Array.iter
            (fun v -> if v >= Mir.vreg_base && v - Mir.vreg_base < Array.length banks then ignore banks.(v - Mir.vreg_base))
            i.srcs)
        blk)
    g.gblocks;
  banks

(* ---------------- InstructionSelect ---------------- *)

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

let rax = 0
let rdx = 2

(* The addressing modes of the loads: as LLVM's X86/AArch64 instruction
   selectors, a G_LOAD whose address is a single-use G_PTR_ADD of the same
   block reads [base + index << k (+ G_CONSTANT offset on x64)] in one
   instruction; the matched G_SHL, G_CONSTANTs and G_PTR_ADDs left without
   another use are not selected. x64 takes k <= 3 and a base-less
   [index << k + disp32] when the base is a constant; a64 takes only
   [base + index lsl 0|log2 size]. Returns the load modes by destination
   vreg and the folded definitions' destinations. *)
let match_load_addresses ~x64 (g : gfunc) =
  let defs = Hashtbl.create 64 and uses = Hashtbl.create 64 in
  let use v = Hashtbl.replace uses v (1 + Option.value ~default:0 (Hashtbl.find_opt uses v)) in
  Array.iteri
    (fun bi blk ->
      Vec.iter
        (fun (i : ginst) ->
          Array.iter use i.srcs;
          (match i.gop with G_phi incoming -> Array.iter (fun (_, v) -> use v) incoming | _ -> ());
          match (i.gop, i.dsts) with
          | (G_const _ | G_shl | G_ptr_add), [| d |] -> Hashtbl.replace defs d (bi, i)
          | _ -> ())
        blk)
    g.gblocks;
  let single v = Hashtbl.find_opt uses v = Some 1 in
  (* the single-use definition of [v] in block [bi] *)
  let def bi v =
    match Hashtbl.find_opt defs v with Some (b, i) when b = bi && single v -> Some i | _ -> None
  in
  let const bi v = match def bi v with Some { gop = G_const c; _ } -> Some c | _ -> None in
  let modes = Hashtbl.create 16 and folded = Hashtbl.create 16 in
  Array.iteri
    (fun bi blk ->
      Vec.iter
        (fun (i : ginst) ->
          match i.gop with
          | G_load { size; _ } when size <= 8 -> (
              (* [base + index << k], then an optional outer constant *)
              let inner, disp, outer =
                match def bi i.srcs.(0) with
                | Some { gop = G_ptr_add; srcs = [| p; c |]; _ } when x64 -> (
                    match (const bi c, def bi p) with
                    | Some off, Some ({ gop = G_ptr_add; _ } as q) -> (Some q, off, [ i.srcs.(0); c ])
                    | _, _ -> (def bi i.srcs.(0), 0L, []))
                | d -> (d, 0L, [])
              in
              match inner with
              | Some { gop = G_ptr_add; srcs = [| b; x |]; dsts = [| a |]; _ } ->
                  let index, scale, shifted =
                    match def bi x with
                    | Some { gop = G_shl; srcs = [| y; amount |]; _ } -> (
                        match const bi amount with
                        | Some k when k >= 0L && k <= 3L -> (y, 1 lsl Int64.to_int k, [ x; amount ])
                        | _ -> (x, 1, []))
                    | _ -> (x, 1, [])
                  in
                  let base, disp, based =
                    match const bi b with
                    | Some c when x64 && Asm.fits_i32 (Int64.add c disp) -> (-1, Int64.add c disp, [ b ])
                    | _ -> (b, disp, [])
                  in
                  if (x64 && Asm.fits_i32 disp) || (Int64.equal disp 0L && (scale = 1 || scale = size))
                  then begin
                    Hashtbl.replace modes i.dsts.(0) (base, index, scale, Int64.to_int disp);
                    List.iter (fun v -> Hashtbl.replace folded v ()) ((a :: outer) @ shifted @ based)
                  end
              | _ -> ())
          | _ -> ())
        blk)
    g.gblocks;
  (modes, folded)

let instruction_select (fl : Flow.t) (g : gfunc) (_banks : int array) =
  let mir = fl.Flow.mir in
  let push i = Flow.push fl (Mir.M i) in
  let x64 = Flow.is_x64 fl in
  let modes, folded = match_load_addresses ~x64 g in
  let hi_of lo = try Hashtbl.find g.pair_hi lo with Not_found -> lo in
  let canon bits d =
    if bits < 64 && bits > 1 then
      push (Minst.Ext { dst = d; src = d; bits; signed = true })
  in
  Array.iteri
    (fun bi blk ->
      fl.Flow.cur <- bi;
      mir.Mir.blocks.(bi).Mir.succs <- g.gsuccs.(bi);
      Vec.iter
        (fun (i : ginst) ->
          if Array.length i.dsts = 1 && Hashtbl.mem folded i.dsts.(0) then ()
          else
          match i.gop with
          | G_const c -> push (Minst.Mov_ri (i.dsts.(0), c))
          | G_copy -> push (Minst.Mov_rr (i.dsts.(0), i.srcs.(0)))
          | G_add | G_sub | G_mul | G_and | G_or | G_xor | G_shl | G_lshr
          | G_ashr | G_rotr ->
              let op =
                match i.gop with
                | G_add -> Minst.Add
                | G_sub -> Minst.Sub
                | G_mul -> Minst.Mul
                | G_and -> Minst.And
                | G_or -> Minst.Or
                | G_xor -> Minst.Xor
                | G_shl -> Minst.Shl
                | G_lshr -> Minst.Shr
                | G_ashr -> Minst.Sar
                | _ -> Minst.Ror
              in
              push (Minst.Alu_rrr (op, i.dsts.(0), i.srcs.(0), i.srcs.(1)));
              canon i.bits i.dsts.(0)
          | G_sdiv | G_udiv | G_srem | G_urem ->
              let signed = i.gop = G_sdiv || i.gop = G_srem in
              let want_rem = i.gop = G_srem || i.gop = G_urem in
              if x64 then begin
                let p0 = Flow.len fl in
                push (Minst.Mov_rr (rax, i.srcs.(0)));
                if signed then begin
                  push (Minst.Mov_rr (rdx, rax));
                  push (Minst.Alu_ri (Minst.Sar, rdx, 63L))
                end
                else push (Minst.Mov_ri (rdx, 0L));
                push (Minst.Div { signed; src = i.srcs.(1) });
                push (Minst.Mov_rr (i.dsts.(0), (if want_rem then rdx else rax)));
                Mir.reserve mir ~block:bi ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rax;
                Mir.reserve mir ~block:bi ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rdx
              end
              else if want_rem then begin
                let q = Mir.new_vreg mir and t = Mir.new_vreg mir in
                push (Minst.Div_rrr { signed; dst = q; a = i.srcs.(0); b = i.srcs.(1) });
                push (Minst.Alu_rrr (Minst.Mul, t, q, i.srcs.(1)));
                push (Minst.Alu_rrr (Minst.Sub, i.dsts.(0), i.srcs.(0), t))
              end
              else push (Minst.Div_rrr { signed; dst = i.dsts.(0); a = i.srcs.(0); b = i.srcs.(1) });
              canon i.bits i.dsts.(0)
          | G_icmp pred ->
              push (Minst.Cmp_rr (i.srcs.(0), i.srcs.(1)));
              push (Minst.Setcc (cmp_to_cond pred, i.dsts.(0)))
          | G_fcmp pred ->
              push (Minst.Fcmp_rr (i.srcs.(0), i.srcs.(1)));
              push (Minst.Setcc (cmp_to_cond pred, i.dsts.(0)))
          | G_icmp128 pred ->
              let d = i.dsts.(0) in
              let t = Mir.new_vreg mir in
              (match pred with
              | Qcomp_ir.Op.Eq | Qcomp_ir.Op.Ne ->
                  push (Minst.Cmp_rr (i.srcs.(0), i.srcs.(2)));
                  push (Minst.Setcc (Minst.Eq, t));
                  push (Minst.Cmp_rr (i.srcs.(1), i.srcs.(3)));
                  push (Minst.Setcc (Minst.Eq, d));
                  push (Minst.Alu_rrr (Minst.And, d, d, t));
                  if pred = Qcomp_ir.Op.Ne then push (Minst.Alu_rri (Minst.Xor, d, d, 1L))
              | _ ->
                  let upred =
                    match pred with
                    | Qcomp_ir.Op.Slt | Qcomp_ir.Op.Ult -> Minst.Ult
                    | Qcomp_ir.Op.Sle | Qcomp_ir.Op.Ule -> Minst.Ule
                    | Qcomp_ir.Op.Sgt | Qcomp_ir.Op.Ugt -> Minst.Ugt
                    | _ -> Minst.Uge
                  in
                  let hpred =
                    match pred with
                    | Qcomp_ir.Op.Slt | Qcomp_ir.Op.Sle -> Minst.Slt
                    | Qcomp_ir.Op.Sgt | Qcomp_ir.Op.Sge -> Minst.Sgt
                    | Qcomp_ir.Op.Ult | Qcomp_ir.Op.Ule -> Minst.Ult
                    | _ -> Minst.Ugt
                  in
                  push (Minst.Cmp_rr (i.srcs.(0), i.srcs.(2)));
                  push (Minst.Setcc (upred, t));
                  push (Minst.Cmp_rr (i.srcs.(1), i.srcs.(3)));
                  push (Minst.Setcc (hpred, d));
                  push (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t }))
          | G_zext bits ->
              if bits >= 64 then push (Minst.Mov_rr (i.dsts.(0), i.srcs.(0)))
              else push (Minst.Ext { dst = i.dsts.(0); src = i.srcs.(0); bits; signed = false })
          | G_sext _ -> push (Minst.Mov_rr (i.dsts.(0), i.srcs.(0)))
          | G_trunc bits ->
              push (Minst.Mov_rr (i.dsts.(0), i.srcs.(0)));
              if bits = 1 then push (Minst.Alu_rri (Minst.And, i.dsts.(0), i.dsts.(0), 1L))
              else canon bits i.dsts.(0)
          | G_select ->
              push (Minst.Cmp_ri (i.srcs.(0), 0L));
              push (Minst.Csel { cond = Minst.Ne; dst = i.dsts.(0); a = i.srcs.(1); b = i.srcs.(2) })
          | G_load { size; sext } -> (
              match Hashtbl.find_opt modes i.dsts.(0) with
              | Some (base, index, scale, off) ->
                  push (Minst.Ldx { dst = i.dsts.(0); base; index; scale; off; size; sext })
              | None ->
                  push (Minst.Ld { dst = i.dsts.(0); base = i.srcs.(0); off = 0; size = min 8 size; sext }))
          | G_load_hi ->
              push (Minst.Ld { dst = i.dsts.(0); base = i.srcs.(0); off = 8; size = 8; sext = false })
          | G_store { size } ->
              push (Minst.St { src = i.srcs.(0); base = i.srcs.(1); off = 0; size = min 8 size })
          | G_store_hi ->
              push (Minst.St { src = i.srcs.(0); base = i.srcs.(1); off = 8; size = 8 })
          | G_ptr_add -> push (Minst.Alu_rrr (Minst.Add, i.dsts.(0), i.srcs.(0), i.srcs.(1)))
          | G_crc32 -> push (Minst.Crc32_rrr (i.dsts.(0), i.srcs.(0), i.srcs.(1)))
          | G_saddo | G_ssubo | G_smulo ->
              let op =
                match i.gop with
                | G_saddo -> Minst.Add
                | G_ssubo -> Minst.Sub
                | _ -> Minst.Mul
              in
              push (Minst.Alu_rrr (op, i.dsts.(0), i.srcs.(0), i.srcs.(1)));
              if i.bits >= 64 then push (Minst.Setcc (Minst.Ov, i.dsts.(1)))
              else begin
                let t = Mir.new_vreg mir in
                push (Minst.Ext { dst = t; src = i.dsts.(0); bits = i.bits; signed = true });
                push (Minst.Cmp_rr (t, i.dsts.(0)));
                push (Minst.Setcc (Minst.Ne, i.dsts.(1)));
                push (Minst.Mov_rr (i.dsts.(0), t))
              end
          | G_uadde | G_usube ->
              (* carry chains legalized to be adjacent: add/adc pairs *)
              let carry_in = i.srcs.(2) in
              let op =
                if carry_in < 0 then if i.gop = G_uadde then Minst.Add else Minst.Sub
                else if i.gop = G_uadde then Minst.Adc
                else Minst.Sbb
              in
              push (Minst.Alu_rrr (op, i.dsts.(0), i.srcs.(0), i.srcs.(1)));
              if Array.length i.dsts > 1 && i.dsts.(1) >= 0 then
                push (Minst.Setcc (Minst.Ov, i.dsts.(1)))
          | G_mulh signed ->
              if x64 then begin
                let p0 = Flow.len fl in
                push (Minst.Mov_rr (rax, i.srcs.(0)));
                push (Minst.Mul_wide { signed; src = i.srcs.(1) });
                push (Minst.Mov_rr (i.dsts.(0), rdx));
                Mir.reserve mir ~block:bi ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rax;
                Mir.reserve mir ~block:bi ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rdx
              end
              else push (Minst.Mul_hi { signed; dst = i.dsts.(0); a = i.srcs.(0); b = i.srcs.(1) })
          | G_call sym ->
              let arg_regs = fl.Flow.target.Target.arg_regs in
              let p0 = Flow.len fl in
              let k = ref 0 in
              let used = ref [] in
              Array.iter
                (fun a ->
                  push (Minst.Mov_rr (arg_regs.(!k), a));
                  used := arg_regs.(!k) :: !used;
                  incr k;
                  if Hashtbl.mem g.pair_hi a then begin
                    push (Minst.Mov_rr (arg_regs.(!k), hi_of a));
                    used := arg_regs.(!k) :: !used;
                    incr k
                  end)
                i.srcs;
              Flow.push fl (Mir.Mcall { sym });
              let cp = Flow.len fl - 1 in
              Mir.record_call mir ~block:bi ~pos:cp;
              List.iter (fun p -> Mir.reserve mir ~block:bi ~from_pos:p0 ~to_pos:cp p) !used;
              if Array.length i.dsts > 0 then begin
                let r0 = fl.Flow.target.Target.ret_regs.(0) in
                push (Minst.Mov_rr (i.dsts.(0), r0));
                Mir.reserve mir ~block:bi ~from_pos:cp ~to_pos:(Flow.len fl - 1) r0;
                if i.wide then begin
                  let r1 = fl.Flow.target.Target.ret_regs.(1) in
                  push (Minst.Mov_rr (hi_of i.dsts.(0), r1));
                  Mir.reserve mir ~block:bi ~from_pos:cp ~to_pos:(Flow.len fl - 1) r1
                end
              end
          | G_br target -> push (Minst.Jmp target)
          | G_brcond { target; fallthrough } ->
              push (Minst.Cmp_ri (i.srcs.(0), 0L));
              push (Minst.Jcc (Minst.Ne, target));
              push (Minst.Jmp fallthrough)
          | G_ret ->
              if Array.length i.srcs > 0 then begin
                push (Minst.Mov_rr (fl.Flow.target.Target.ret_regs.(0), i.srcs.(0)));
                if i.wide then
                  push (Minst.Mov_rr (fl.Flow.target.Target.ret_regs.(1), hi_of i.srcs.(0)))
              end;
              push Minst.Ret
          | G_trap -> push (Minst.Brk 0)
          | G_fbin fop ->
              push (Minst.Falu_rrr (fop, i.dsts.(0), i.srcs.(0), i.srcs.(1)))
          | G_sitofp -> push (Minst.Cvt_si2f (i.dsts.(0), i.srcs.(0)))
          | G_fptosi -> push (Minst.Cvt_f2si (i.dsts.(0), i.srcs.(0)))
          | G_phi incoming ->
              Flow.push fl (Mir.Mphi { dst = i.dsts.(0); incoming })
          | G_uaddo -> failwith "gisel: unexpected raw uaddo")
        blk)
    g.gblocks

(** The full GlobalISel pipeline; phase names match Fig. 3. *)
let run (timing : Qcomp_support.Timing.t) (fl : Flow.t) =
  Hashtbl.reset fl.Flow.gisel_ovf;
  (* argument binding, as in the DAG/FastISel driver *)
  fl.Flow.cur <- 0;
  let argk = ref 0 in
  Array.iteri
    (fun k ty ->
      Flow.push fl
        (Mir.M (Minst.Mov_rr (Flow.arg_vreg fl k, fl.Flow.target.Target.arg_regs.(!argk))));
      incr argk;
      if ty = Lir.I128 || ty = Lir.Pair then begin
        Flow.push fl
          (Mir.M (Minst.Mov_rr (Flow.arg_vreg_hi fl k, fl.Flow.target.Target.arg_regs.(!argk))));
        incr argk
      end)
    fl.Flow.lir.Lir.arg_tys;
  if !argk > 0 then
    for k = 0 to !argk - 1 do
      Mir.reserve fl.Flow.mir ~block:0 ~from_pos:0 ~to_pos:(Flow.len fl - 1)
        fl.Flow.target.Target.arg_regs.(k)
    done;
  let g = Qcomp_support.Timing.scope timing "IRTranslator" (fun () -> translate fl) in
  Qcomp_support.Timing.scope timing "Legalizer" (fun () -> legalize fl g);
  Qcomp_support.Timing.scope timing "Combiner" (fun () -> combine g);
  let banks = Qcomp_support.Timing.scope timing "RegBankSelect" (fun () -> reg_bank_select fl g) in
  Qcomp_support.Timing.scope timing "InstructionSelect" (fun () ->
      instruction_select fl g banks)
