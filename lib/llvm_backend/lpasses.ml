(** LLVM-like pass infrastructure and the optimization pipeline (Sec. V).

    The pass manager mimics the legacy PM: a list of function passes with
    string-keyed analysis availability tracking (the bookkeeping the paper
    profiles at ~5% of cheap compile time). The pre-ISel lowering passes
    each iterate over all instructions looking for constructs Umbra never
    generates — they run anyway, as the paper observes. The -O2 pipeline is
    the set Sec. V-A1 lists: early-CSE, CFG simplification, instruction
    combining, loop-invariant code motion and dead-code elimination. *)

open Qcomp_support

(* ---------------- LIR CFG analyses ---------------- *)

module Lir_graph = struct
  type t = Lir.func

  let num_nodes (f : t) = Vec.length f.Lir.blocks
  let entry (_ : t) = 0

  let iter_succs (f : t) b k =
    List.iter
      (fun (s : Lir.block) -> k s.Lir.bid)
      (Lir.succs (Vec.get f.Lir.blocks b))
end

module Lir_analysis = Qcomp_ir.Graph.Make (Lir_graph)

type analysis_cache = {
  available : (string, unit) Hashtbl.t;  (** legacy-PM availability map *)
  mutable domtree : Lir_analysis.domtree option;
  mutable loops : Lir_analysis.loops option;
}

let fresh_cache () =
  { available = Hashtbl.create 8; domtree = None; loops = None }

let get_domtree cache f =
  match cache.domtree with
  | Some d -> d
  | None ->
      let d = Lir_analysis.dominators f in
      cache.domtree <- Some d;
      Hashtbl.replace cache.available "domtree" ();
      d

let get_loops cache f =
  match cache.loops with
  | Some l -> l
  | None ->
      let l = Lir_analysis.natural_loops f (get_domtree cache f) in
      cache.loops <- Some l;
      Hashtbl.replace cache.available "loops" ();
      l

let invalidate cache =
  Hashtbl.reset cache.available;
  cache.domtree <- None;
  cache.loops <- None

type pass = {
  pname : string;
  requires : string list;
  preserves_cfg : bool;
  run : analysis_cache -> Lir.func -> bool;  (** true when IR changed *)
}

(** Run passes with legacy-PM-style analysis tracking; every pass is timed
    under its own name. *)
let run_passes (timing : Timing.t) (cache : analysis_cache) passes f =
  List.iter
    (fun p ->
      (* availability bookkeeping *)
      List.iter
        (fun r ->
          if not (Hashtbl.mem cache.available r) then begin
            match r with
            | "domtree" -> ignore (get_domtree cache f)
            | "loops" -> ignore (get_loops cache f)
            | _ -> ()
          end)
        p.requires;
      let changed = Timing.scope timing p.pname (fun () -> p.run cache f) in
      if changed && not p.preserves_cfg then invalidate cache)
    passes

(* ---------------- pre-ISel lowering passes ---------------- *)

(* Each scans every instruction for a construct that never occurs in
   query code; the iteration cost is the point (Sec. V-B2). *)
let scan_pass name pred =
  {
    pname = name;
    requires = [];
    preserves_cfg = true;
    run =
      (fun _ f ->
        let found = ref false in
        Lir.iter_blocks f (fun b ->
            Lir.iter_insts b (fun i -> if pred i then found := true));
        (* nothing to rewrite in practice *)
        !found && false);
  }

let pre_isel_passes =
  [
    scan_pass "ExpandLargeDivRem" (fun i ->
        match i.Lir.iop with
        | Lir.Sdiv | Lir.Udiv | Lir.Srem | Lir.Urem ->
            Lir.ty_size_bits i.Lir.ity > 128
        | _ -> false);
    scan_pass "ExpandLargeFpConvert" (fun i ->
        match i.Lir.iop with
        | Lir.Sitofp | Lir.Fptosi -> Lir.ty_size_bits i.Lir.ity > 128
        | _ -> false);
    scan_pass "LowerConstantIntrinsics" (fun i ->
        match i.Lir.iop with
        | Lir.Call (Lir.Intr _) -> false (* no llvm.is.constant in query code *)
        | _ -> false);
    scan_pass "ExpandVectorPredication" (fun _ -> false);
    scan_pass "ScalarizeMaskedMemIntrin" (fun _ -> false);
    scan_pass "LowerAMXType" (fun _ -> false);
    scan_pass "ExpandReductions" (fun _ -> false);
    scan_pass "IndirectBrExpand" (fun _ -> false);
  ]

(* ---------------- O2 pipeline ---------------- *)

let is_pure (i : Lir.inst) =
  match i.Lir.iop with
  | Lir.Add | Lir.Sub | Lir.Mul | Lir.And | Lir.Or | Lir.Xor | Lir.Shl
  | Lir.Lshr | Lir.Ashr | Lir.Icmp _ | Lir.Fcmp _ | Lir.Trunc | Lir.Zext
  | Lir.Sext | Lir.Sitofp | Lir.Fptosi | Lir.Gep | Lir.Select
  | Lir.Extractvalue _ | Lir.Makepair | Lir.Fadd | Lir.Fsub | Lir.Fmul
  | Lir.Freeze | Lir.Pairof | Lir.Pairval ->
      true
  | Lir.Fdiv -> true
  | Lir.Sdiv | Lir.Udiv | Lir.Srem | Lir.Urem (* may trap *)
  | Lir.Load (* memory-dependent *)
  | Lir.Store | Lir.Phi | Lir.Call _ | Lir.Br | Lir.Condbr | Lir.Ret
  | Lir.Unreachable | Lir.Atomicrmw_add ->
      false

let has_side_effect (i : Lir.inst) =
  match i.Lir.iop with
  | Lir.Store | Lir.Call _ | Lir.Br | Lir.Condbr | Lir.Ret | Lir.Unreachable
  | Lir.Atomicrmw_add | Lir.Sdiv | Lir.Udiv | Lir.Srem | Lir.Urem ->
      true
  | _ -> false

let value_key (v : Lir.value) =
  match v with
  | Lir.Vinst i -> (0, i.Lir.iid, 0L)
  | Lir.Varg (k, _) -> (1, k, 0L)
  | Lir.Vconst (ty, c) -> (2, Hashtbl.hash ty, c)
  | Lir.Vconst128 c -> (3, 0, I128.to_int64 c)

let inst_key (i : Lir.inst) =
  (Hashtbl.hash i.Lir.iop, i.Lir.ity, Array.map value_key i.Lir.operands)

(* early-CSE: per-block hash of pure expressions *)
let early_cse_pass =
  {
    pname = "EarlyCSE";
    requires = [ "domtree" ];
    preserves_cfg = true;
    run =
      (fun _ f ->
        let changed = ref false in
        Lir.iter_blocks f (fun b ->
            let table = Hashtbl.create 32 in
            Lir.iter_insts b (fun i ->
                if is_pure i then begin
                  let key = inst_key i in
                  match Hashtbl.find_opt table key with
                  | Some prev ->
                      Lir.replace_all_uses i (Lir.Vinst prev);
                      Lir.erase i;
                      changed := true
                  | None -> Hashtbl.add table key i
                end));
        !changed);
  }

(* CFG simplification: fold constant branches, merge straight-line block
   pairs, drop unreachable blocks. *)
let simplifycfg_pass =
  {
    pname = "SimplifyCFG";
    requires = [];
    preserves_cfg = false;
    run =
      (fun _ f ->
        let changed = ref false in
        (* 1. constant conditional branches *)
        Lir.iter_blocks f (fun b ->
            match Lir.terminator b with
            | Some t when t.Lir.iop = Lir.Condbr -> (
                match t.Lir.operands.(0) with
                | Lir.Vconst (_, c) ->
                    let keep = if Int64.equal c 0L then 1 else 0 in
                    let target = t.Lir.targets.(keep) in
                    let dead_target = t.Lir.targets.(1 - keep) in
                    t.Lir.iop <- Lir.Br;
                    Array.iter (fun v -> Lir.remove_user v t) t.Lir.operands;
                    t.Lir.operands <- [||];
                    t.Lir.targets <- [| target |];
                    (* drop phi inputs coming from this edge *)
                    Lir.iter_insts dead_target (fun p ->
                        if p.Lir.iop = Lir.Phi then begin
                          let keep_idx = ref [] in
                          Array.iteri
                            (fun k pb -> if pb != b then keep_idx := k :: !keep_idx)
                            p.Lir.phi_blocks;
                          let keep_idx = List.rev !keep_idx in
                          let ops = Array.of_list (List.map (fun k -> p.Lir.operands.(k)) keep_idx) in
                          let pbs = Array.of_list (List.map (fun k -> p.Lir.phi_blocks.(k)) keep_idx) in
                          p.Lir.operands <- ops;
                          p.Lir.phi_blocks <- pbs
                        end);
                    changed := true
                | _ -> ())
            | _ -> ());
        (* 2. merge single-pred/single-succ straight lines *)
        let preds = Hashtbl.create 32 in
        Lir.iter_blocks f (fun b ->
            List.iter
              (fun (s : Lir.block) ->
                Hashtbl.replace preds s.Lir.bid
                  (b :: Option.value ~default:[] (Hashtbl.find_opt preds s.Lir.bid)))
              (Lir.succs b));
        Lir.iter_blocks f (fun b ->
            match Lir.terminator b with
            | Some t
              when t.Lir.iop = Lir.Br
                   && (match Hashtbl.find_opt preds t.Lir.targets.(0).Lir.bid with
                      | Some [ _ ] -> true
                      | _ -> false)
                   && t.Lir.targets.(0) != b
                   && t.Lir.targets.(0).Lir.bid <> 0 ->
                let succ = t.Lir.targets.(0) in
                let has_phi = ref false in
                Lir.iter_insts succ (fun i ->
                    if i.Lir.iop = Lir.Phi then has_phi := true);
                if not !has_phi then begin
                  (* splice succ's instructions into b, replacing the br *)
                  Lir.erase t;
                  Lir.iter_insts succ (fun i ->
                      i.Lir.parent <- Some b;
                      ignore (Vec.push b.Lir.insts i));
                  succ.Lir.insts <- Vec.create ~dummy:Lir.dummy_inst ();
                  (* succ becomes empty; phis elsewhere referencing succ as
                     a pred must now reference b *)
                  Lir.iter_blocks f (fun ob ->
                      Lir.iter_insts ob (fun p ->
                          if p.Lir.iop = Lir.Phi then
                            Array.iteri
                              (fun k pb -> if pb == succ then p.Lir.phi_blocks.(k) <- b)
                              p.Lir.phi_blocks));
                  changed := true
                end
            | _ -> ());
        !changed);
  }

(* instruction combining: local algebraic rewrites *)
let instcombine_pass =
  {
    pname = "InstCombine";
    requires = [ "domtree" ];
    preserves_cfg = true;
    run =
      (fun _ f ->
        let changed = ref false in
        let fold i (v : Lir.value) =
          Lir.replace_all_uses i v;
          Lir.erase i;
          changed := true
        in
        Lir.iter_blocks f (fun b ->
            Lir.iter_insts b (fun i ->
                let op k = i.Lir.operands.(k) in
                match i.Lir.iop with
                | Lir.Add -> (
                    match (op 0, op 1) with
                    | Lir.Vconst (ty, a), Lir.Vconst (_, b') ->
                        fold i (Lir.Vconst (ty, Int64.add a b'))
                    | x, Lir.Vconst (_, 0L) -> fold i x
                    | Lir.Vconst (_, 0L), x -> fold i x
                    | _ -> ())
                | Lir.Sub -> (
                    match (op 0, op 1) with
                    | Lir.Vconst (ty, a), Lir.Vconst (_, b') ->
                        fold i (Lir.Vconst (ty, Int64.sub a b'))
                    | x, Lir.Vconst (_, 0L) -> fold i x
                    | _ -> ())
                | Lir.Mul -> (
                    match (op 0, op 1) with
                    | Lir.Vconst (ty, a), Lir.Vconst (_, b') ->
                        fold i (Lir.Vconst (ty, Int64.mul a b'))
                    | x, Lir.Vconst (_, 1L) -> fold i x
                    | Lir.Vconst (_, 1L), x -> fold i x
                    | _, Lir.Vconst (ty, c)
                      when ty <> Lir.I128 && Int64.logand c (Int64.sub c 1L) = 0L
                           && Int64.compare c 1L > 0 ->
                        (* strength-reduce multiply by power of two *)
                        let rec log2 v k = if Int64.equal v 1L then k else log2 (Int64.shift_right_logical v 1) (k + 1) in
                        i.Lir.iop <- Lir.Shl;
                        Lir.set_operand i 1 (Lir.Vconst (Lir.I64, Int64.of_int (log2 c 0)));
                        changed := true
                    | _ -> ())
                | Lir.And -> (
                    match (op 0, op 1) with
                    | x, Lir.Vconst (_, -1L) -> fold i x
                    | Lir.Vconst (ty, a), Lir.Vconst (_, b') ->
                        fold i (Lir.Vconst (ty, Int64.logand a b'))
                    | _ -> ())
                | Lir.Or -> (
                    match (op 0, op 1) with
                    | x, Lir.Vconst (_, 0L) -> fold i x
                    | Lir.Vconst (_, 0L), x -> fold i x
                    | _ -> ())
                | Lir.Xor -> (
                    match (op 0, op 1) with
                    | x, Lir.Vconst (_, 0L) -> fold i x
                    | _ -> ())
                | Lir.Icmp pred -> (
                    match (op 0, op 1) with
                    | Lir.Vconst (_, a), Lir.Vconst (_, b') ->
                        let sc = Int64.compare a b' and uc = Int64.unsigned_compare a b' in
                        let r = Qcomp_ir.Op.cmp_eval pred ~signed_cmp:sc ~unsigned_cmp:uc in
                        fold i (Lir.Vconst (Lir.I1, if r then 1L else 0L))
                    | _ -> ())
                | Lir.Select -> (
                    match op 0 with
                    | Lir.Vconst (_, c) -> fold i (if Int64.equal c 0L then op 2 else op 1)
                    | _ -> ())
                | Lir.Zext | Lir.Sext -> (
                    (* ext of ext becomes one ext *)
                    match op 0 with
                    | Lir.Vinst j when (not j.Lir.deleted) && j.Lir.iop = i.Lir.iop ->
                        Lir.set_operand i 0 j.Lir.operands.(0);
                        changed := true
                    | Lir.Vconst (_, c) when i.Lir.iop = Lir.Sext && i.Lir.ity <> Lir.I128 ->
                        fold i (Lir.Vconst (i.Lir.ity, c))
                    | _ -> ())
                | Lir.Trunc -> (
                    (* trunc(ext x) where widths cancel *)
                    match op 0 with
                    | Lir.Vinst j
                      when (not j.Lir.deleted)
                           && (j.Lir.iop = Lir.Zext || j.Lir.iop = Lir.Sext)
                           && Lir.value_ty j.Lir.operands.(0) = i.Lir.ity ->
                        fold i j.Lir.operands.(0)
                    | _ -> ())
                | Lir.Gep -> (
                    let scale, off = Lir.gep_scale_off i in
                    match op 1 with
                    | Lir.Vconst (_, 0L) when Int64.equal off 0L -> fold i (op 0)
                    | Lir.Vconst (_, c) when not (Int64.equal c 0L) ->
                        (* a constant index belongs to the offset *)
                        Lir.set_operand i 1 (Lir.Vconst (Lir.I64, 0L));
                        Lir.set_operand i 3
                          (Lir.Vconst (Lir.I64, Int64.add off (Int64.mul c (Int64.of_int scale))));
                        changed := true
                    | _ -> ())
                | _ -> ()));
        !changed);
  }

(* loop-invariant code motion: hoist pure loop-invariant instructions into
   the preheader *)
let licm_pass =
  {
    pname = "LICM";
    requires = [ "domtree"; "loops" ];
    preserves_cfg = true;
    run =
      (fun cache f ->
        let changed = ref false in
        let loops = get_loops cache f in
        let dt = get_domtree cache f in
        List.iter
          (fun (header, body) ->
            let in_body = Hashtbl.create 16 in
            List.iter (fun b -> Hashtbl.replace in_body b ()) body;
            (* find the unique non-backedge predecessor with a single succ *)
            let preds = dt.Lir_analysis.preds.(header) in
            let outside = List.filter (fun p -> not (Hashtbl.mem in_body p)) preds in
            match outside with
            | [ pre ]
              when List.length (Lir.succs (Vec.get f.Lir.blocks pre)) = 1 ->
                let pre_b = Vec.get f.Lir.blocks pre in
                let in_loop bid = Hashtbl.mem in_body bid in
                let invariant (v : Lir.value) =
                  match v with
                  | Lir.Vconst _ | Lir.Vconst128 _ | Lir.Varg _ -> true
                  | Lir.Vinst j -> (
                      match j.Lir.parent with
                      | Some p -> not (in_loop p.Lir.bid)
                      | None -> false)
                in
                (* single hoisting sweep over the loop body *)
                Lir.iter_blocks f (fun b ->
                    if in_loop b.Lir.bid then
                      Lir.iter_insts b (fun i ->
                          if
                            is_pure i && i.Lir.iop <> Lir.Phi
                            && Array.for_all invariant i.Lir.operands
                          then begin
                            (* move to preheader, before its terminator *)
                            i.Lir.deleted <- true;
                            let copy =
                              Lir.mk_inst f pre_b ~iop:i.Lir.iop ~ity:i.Lir.ity
                                ~operands:i.Lir.operands ()
                            in
                            (* put the copy before the terminator *)
                            let n = Vec.length pre_b.Lir.insts in
                            if n >= 2 then begin
                              let t = Vec.get pre_b.Lir.insts (n - 2) in
                              Vec.set pre_b.Lir.insts (n - 2) (Vec.get pre_b.Lir.insts (n - 1));
                              Vec.set pre_b.Lir.insts (n - 1) t
                            end;
                            Lir.replace_all_uses i (Lir.Vinst copy);
                            changed := true
                          end))
            | _ -> ())
          loops.Lir_analysis.bodies;
        !changed);
  }

(* dead code elimination *)
let dce_pass =
  {
    pname = "DCE";
    requires = [];
    preserves_cfg = true;
    run =
      (fun _ f ->
        let changed = ref false in
        let again = ref true in
        while !again do
          again := false;
          Lir.iter_blocks f (fun b ->
              Lir.iter_insts b (fun i ->
                  if
                    (not (has_side_effect i))
                    && i.Lir.iop <> Lir.Phi
                    && i.Lir.users = []
                    && i.Lir.ity <> Lir.Void
                  then begin
                    Lir.erase i;
                    changed := true;
                    again := true
                  end))
        done;
        (* dead phis too *)
        Lir.iter_blocks f (fun b ->
            Lir.iter_insts b (fun i ->
                if i.Lir.iop = Lir.Phi && i.Lir.users = [] then begin
                  Lir.erase i;
                  changed := true
                end));
        !changed);
  }

let o2_pipeline = [ early_cse_pass; simplifycfg_pass; instcombine_pass; licm_pass; dce_pass ]
