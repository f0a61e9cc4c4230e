(** SelectionDAG-like instruction selection (Sec. V-B3a).

    Operates on one basic block (or the remainder of one, after a FastISel
    fallback) at a time: the LIR is first converted into a DAG of generic
    operation nodes; combines and legalizations rewrite the graph (128-bit
    operations are expanded into pair nodes here); the actual selection
    replaces generic nodes with machine forms (folding addressing modes and
    fusing compares into branches); finally the DAG is linearized back into
    MIR in topological order. The combine stage determines known bits via
    recursive traversal — the cost the paper singles out. *)

open Qcomp_vm

type nop =
  | NConst of int64
  | NConst128 of Qcomp_support.I128.t
  | NCopy_from_reg of int  (** live-in vreg *)
  | NArg of int
  | NAdd
  | NSub
  | NMul
  | NSdiv
  | NUdiv
  | NSrem
  | NUrem
  | NAnd
  | NOr
  | NXor
  | NShl
  | NLshr
  | NAshr
  | NRotr
  | NSetcc of Qcomp_ir.Op.cmp
  | NFsetcc of Qcomp_ir.Op.cmp
  | NTrunc
  | NZext
  | NSext
  | NSitofp
  | NFptosi
  | NLoad of { size : int; sext : bool; off : int }
  | NLoadx of { size : int; sext : bool; scale : int; off : int }
      (** selected addressing-mode load from [base + index * scale + off];
          operands [base; index], or only [index] without a base (x64) *)
  | NStore of { size : int; off : int }
  | NCall of { sym : string; ret2 : bool }
  | NCrc32
  | NOvf of [ `Add | `Sub | `Mul ]  (** overflow-trapping op: value result *)
  | NOvf_flag  (** i1 flag projection of an NOvf *)
  | NSelect
  | NBr of int
  | NBrcc of { cond : Minst.cond; target : int; fallthrough : int }
  | NBrcond of { target : int; fallthrough : int }
  | NRet
  | NTrap
  | NFadd
  | NFsub
  | NFmul
  | NFdiv
  | NAtomic_add of int  (** size *)
  | NCopy_to_reg of int  (** target vreg *)
  (* post-legalization pair forms (i128 expanded to i64 pairs) *)
  | NPair_lo  (** projection *)
  | NPair_hi
  | NMake_pair  (** operands lo, hi *)
  | NAdd128  (** operands lo0 hi0 lo1 hi1; result = pair *)
  | NSub128
  | NAdd128_ovf
  | NSub128_ovf
  | NMul128  (** full truncated multiply *)
  | NMul_wide of bool  (** signed; operands two i64; result = pair *)
  | NSetcc128 of Qcomp_ir.Op.cmp  (** operands lo0 hi0 lo1 hi1 -> i1 *)
  | NSelect128  (** cond, lo_a, hi_a, lo_b, hi_b -> pair *)

type node = {
  nid : int;
  mutable nop : nop;
  mutable ops : node array;
  mutable chain : node option;  (** ordering dependency for effects *)
  mutable nty : Lir.ty;
  mutable dead : bool;
  mutable result_vreg : int;  (** assigned at emission *)
  mutable result_vreg2 : int;
}

type dag = {
  mutable nodes : node list;  (** reverse creation order *)
  mutable nnodes : int;
  mutable last_chain : node option;
  mutable known_bits_queries : int;
}

let new_dag () =
  { nodes = []; nnodes = 0; last_chain = None; known_bits_queries = 0 }

let mk dag ?(ops = [||]) ?chain ~ty nop =
  let n =
    {
      nid = dag.nnodes;
      nop;
      ops;
      chain;
      nty = ty;
      dead = false;
      result_vreg = -1;
      result_vreg2 = -1;
    }
  in
  dag.nnodes <- dag.nnodes + 1;
  dag.nodes <- n :: dag.nodes;
  n

let mk_effect dag ?(ops = [||]) ~ty nop =
  let n = mk dag ~ops ?chain:dag.last_chain ~ty nop in
  dag.last_chain <- Some n;
  n

(* ------------------------------------------------------------------ *)
(* computeKnownBits: recursive traversal (deliberately unmemoized within a
   query, like LLVM's). Returns a mask of bits known to be zero for <=64
   bit values. *)

let rec known_zero dag (n : node) depth : int64 =
  dag.known_bits_queries <- dag.known_bits_queries + 1;
  if depth = 0 then 0L
  else
    match n.nop with
    | NConst c -> Int64.lognot c
    | NSetcc _ | NFsetcc _ | NOvf_flag -> Int64.lognot 1L
    | NZext ->
        let src_bits = Lir.ty_size_bits n.ops.(0).nty in
        if src_bits >= 64 then known_zero dag n.ops.(0) (depth - 1)
        else
          let high =
            Int64.shift_left (-1L) src_bits
          in
          Int64.logor high (known_zero dag n.ops.(0) (depth - 1))
    | NAnd ->
        Int64.logor
          (known_zero dag n.ops.(0) (depth - 1))
          (known_zero dag n.ops.(1) (depth - 1))
    | NOr | NXor ->
        Int64.logand
          (known_zero dag n.ops.(0) (depth - 1))
          (known_zero dag n.ops.(1) (depth - 1))
    | NShl -> (
        match n.ops.(1).nop with
        | NConst c ->
            let s = Int64.to_int c land 63 in
            let kz = known_zero dag n.ops.(0) (depth - 1) in
            Int64.logor
              (Int64.shift_left kz s)
              (Int64.sub (Int64.shift_left 1L s) 1L)
        | _ -> 0L)
    | NLshr -> (
        match n.ops.(1).nop with
        | NConst c ->
            let s = Int64.to_int c land 63 in
            let kz = known_zero dag n.ops.(0) (depth - 1) in
            Int64.logor
              (Int64.shift_right_logical kz s)
              (Int64.shift_left (-1L) (64 - s))
        | _ -> 0L)
    | NCrc32 -> Int64.shift_left (-1L) 32  (* crc32 zero-extends *)
    | NLoad { size; sext = false; _ } when size < 8 ->
        Int64.shift_left (-1L) (8 * size)
    | _ -> 0L

(* ------------------------------------------------------------------ *)
(* Combines *)

let replace_everywhere dag ~old ~new_ =
  List.iter
    (fun (n : node) ->
      Array.iteri (fun k o -> if o == old then n.ops.(k) <- new_) n.ops;
      match n.chain with
      | Some c when c == old -> n.chain <- old.chain
      | _ -> ())
    dag.nodes;
  old.dead <- true

let combine dag =
  let changed = ref false in
  List.iter
    (fun (n : node) ->
      if not n.dead then
        match (n.nop, n.ops) with
        (* constant folding on binary integer ops *)
        | NAdd, [| { nop = NConst a; _ }; { nop = NConst b; _ } |] ->
            replace_everywhere dag ~old:n ~new_:(mk dag ~ty:n.nty (NConst (Int64.add a b)));
            changed := true
        | NAdd, [| x; { nop = NConst 0L; _ } |] ->
            replace_everywhere dag ~old:n ~new_:x;
            changed := true
        | NMul, [| { nop = NSext; ops = opsa; nty = Lir.I128; _ }; { nop = NSext; ops = opsb; _ } |]
          when n.nty = Lir.I128
               && Lir.ty_size_bits opsa.(0).nty = 64
               && Lir.ty_size_bits opsb.(0).nty = 64 ->
            (* widening multiply: the fast path of the custom 128-bit
               multiplication (Sec. V-A1) *)
            n.nop <- NMul_wide true;
            n.ops <- [| opsa.(0); opsb.(0) |];
            changed := true
        | NMul, [| { nop = NZext; ops = opsa; nty = Lir.I128; _ }; { nop = NZext; ops = opsb; _ } |]
          when n.nty = Lir.I128
               && Lir.ty_size_bits opsa.(0).nty = 64
               && Lir.ty_size_bits opsb.(0).nty = 64 ->
            n.nop <- NMul_wide false;
            n.ops <- [| opsa.(0); opsb.(0) |];
            changed := true
        | NAnd, [| x; { nop = NConst c; _ } |]
          when n.nty <> Lir.I128
               && Int64.equal (Int64.logand (Int64.lognot c) (Int64.lognot (known_zero dag x 6))) 0L ->
            (* all bits cleared by the mask are already known zero *)
            replace_everywhere dag ~old:n ~new_:x;
            changed := true
        | NZext, [| x |]
          when n.nty = Lir.I64
               && Int64.equal
                    (Int64.logand (known_zero dag x 6)
                       (Int64.shift_left (-1L) (Lir.ty_size_bits n.ops.(0).nty)))
                    (Int64.shift_left (-1L) (Lir.ty_size_bits n.ops.(0).nty))
               && false ->
            ()
        | NBrcond { target; fallthrough }, [| { nop = NSetcc pred; ops = cops; dead = false; _ } as sc |]
          when sc.nty = Lir.I1 && Lir.ty_size_bits cops.(0).nty <= 64 ->
            (* fuse compare into the branch *)
            n.nop <- NBrcc { cond = (match pred with
                | Qcomp_ir.Op.Eq -> Minst.Eq
                | Qcomp_ir.Op.Ne -> Minst.Ne
                | Qcomp_ir.Op.Slt -> Minst.Slt
                | Qcomp_ir.Op.Sle -> Minst.Sle
                | Qcomp_ir.Op.Sgt -> Minst.Sgt
                | Qcomp_ir.Op.Sge -> Minst.Sge
                | Qcomp_ir.Op.Ult -> Minst.Ult
                | Qcomp_ir.Op.Ule -> Minst.Ule
                | Qcomp_ir.Op.Ugt -> Minst.Ugt
                | Qcomp_ir.Op.Uge -> Minst.Uge); target; fallthrough };
            n.ops <- cops;
            changed := true
        | NSetcc pred, [| { nop = NConst a; _ }; { nop = NConst b; _ } |] ->
            let r =
              Qcomp_ir.Op.cmp_eval pred ~signed_cmp:(Int64.compare a b)
                ~unsigned_cmp:(Int64.unsigned_compare a b)
            in
            replace_everywhere dag ~old:n ~new_:(mk dag ~ty:Lir.I1 (NConst (if r then 1L else 0L)));
            changed := true
        | _ -> ())
    dag.nodes;
  !changed

(* ------------------------------------------------------------------ *)
(* Legalization: expand 128-bit (and Pair) values into pair nodes. *)

let lo_of dag (n : node) =
  match n.nop with
  | NConst128 c -> mk dag ~ty:Lir.I64 (NConst (Qcomp_support.I128.to_int64 c))
  | NMake_pair -> n.ops.(0)
  | _ -> mk dag ~ops:[| n |] ~ty:Lir.I64 NPair_lo

let hi_of dag (n : node) =
  match n.nop with
  | NConst128 c ->
      mk dag ~ty:Lir.I64
        (NConst (Qcomp_support.I128.to_int64 (Qcomp_support.I128.shift_right_logical c 64)))
  | NMake_pair -> n.ops.(1)
  | _ -> mk dag ~ops:[| n |] ~ty:Lir.I64 NPair_hi

let is_wide (n : node) = n.nty = Lir.I128 || n.nty = Lir.Pair

let legalize dag =
  (* iterate until every wide generic op has a legal pair form *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : node) ->
        if not n.dead then
          match n.nop with
          | NAdd when is_wide n ->
              n.nop <- NAdd128;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | NSub when is_wide n ->
              n.nop <- NSub128;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | NMul when is_wide n ->
              n.nop <- NMul128;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | NOvf `Add when is_wide n ->
              n.nop <- NAdd128_ovf;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | NOvf `Sub when is_wide n ->
              n.nop <- NSub128_ovf;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | (NAnd | NOr | NXor) when is_wide n ->
              (* split into two narrow ops recombined as a pair *)
              let op = n.nop in
              let mklane f =
                mk dag ~ops:[| f dag n.ops.(0); f dag n.ops.(1) |] ~ty:Lir.I64 op
              in
              let lo = mklane lo_of and hi = mklane hi_of in
              n.nop <- NMake_pair;
              n.ops <- [| lo; hi |];
              changed := true
          | NSetcc pred when Lir.ty_size_bits n.ops.(0).nty > 64 ->
              n.nop <- NSetcc128 pred;
              n.ops <-
                [| lo_of dag n.ops.(0); hi_of dag n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1) |];
              changed := true
          | NSelect when is_wide n ->
              n.nop <- NSelect128;
              n.ops <-
                [| n.ops.(0); lo_of dag n.ops.(1); hi_of dag n.ops.(1); lo_of dag n.ops.(2); hi_of dag n.ops.(2) |];
              changed := true
          | NTrunc when is_wide n.ops.(0) && Lir.ty_size_bits n.nty <= 64 ->
              let lo = lo_of dag n.ops.(0) in
              if n.nty = Lir.I64 then replace_everywhere dag ~old:n ~new_:lo
              else n.ops <- [| lo |];
              changed := true
          | NSext when is_wide n && not (is_wide n.ops.(0)) ->
              (* sext to i128: lo = value, hi = value >> 63 *)
              let src = n.ops.(0) in
              let c63 = mk dag ~ty:Lir.I64 (NConst 63L) in
              let hi = mk dag ~ops:[| src; c63 |] ~ty:Lir.I64 NAshr in
              n.nop <- NMake_pair;
              n.ops <- [| src; hi |];
              changed := true
          | NZext when is_wide n && not (is_wide n.ops.(0)) ->
              let src = n.ops.(0) in
              let z = mk dag ~ty:Lir.I64 (NConst 0L) in
              n.nop <- NMake_pair;
              n.ops <- [| src; z |];
              changed := true
          | (NLshr | NShl | NAshr) when is_wide n -> (
              (* constant shifts only (the hash sequences) *)
              let rec amount_const (m : node) =
                match m.nop with
                | NConst c -> Some c
                | NConst128 c -> Some (Qcomp_support.I128.to_int64 c)
                | NSext | NZext | NMake_pair | NPair_lo -> amount_const m.ops.(0)
                | _ -> None
              in
              match amount_const n.ops.(1) with
              | Some 64L -> (
                  match n.nop with
                  | NLshr ->
                      let hi = hi_of dag n.ops.(0) in
                      let z = mk dag ~ty:Lir.I64 (NConst 0L) in
                      n.nop <- NMake_pair;
                      n.ops <- [| hi; z |];
                      changed := true
                  | NShl ->
                      let lo = lo_of dag n.ops.(0) in
                      let z = mk dag ~ty:Lir.I64 (NConst 0L) in
                      n.nop <- NMake_pair;
                      n.ops <- [| z; lo |];
                      changed := true
                  | _ ->
                      let hi = hi_of dag n.ops.(0) in
                      let c63 = mk dag ~ty:Lir.I64 (NConst 63L) in
                      let shi = mk dag ~ops:[| hi; c63 |] ~ty:Lir.I64 NAshr in
                      n.nop <- NMake_pair;
                      n.ops <- [| hi; shi |];
                      changed := true)
              | _ -> failwith "seldag: unsupported dynamic 128-bit shift")
          | NLoad { size = 16; sext; off } when is_wide n ->
              ignore sext;
              let base = n.ops.(0) in
              let lo =
                mk dag ~ops:[| base |] ?chain:n.chain ~ty:Lir.I64
                  (NLoad { size = 8; sext = false; off })
              in
              let hi =
                mk dag ~ops:[| base |] ~chain:lo ~ty:Lir.I64
                  (NLoad { size = 8; sext = false; off = off + 8 })
              in
              (* splice into the chain where the original load sat *)
              List.iter
                (fun (m : node) ->
                  match m.chain with
                  | Some c when c == n && m != lo && m != hi -> m.chain <- Some hi
                  | _ -> ())
                dag.nodes;
              (match dag.last_chain with
              | Some c when c == n -> dag.last_chain <- Some hi
              | _ -> ());
              n.nop <- NMake_pair;
              n.ops <- [| lo; hi |];
              n.chain <- None;
              changed := true
          | NStore { size = 16; off } ->
              let v = n.ops.(0) and base = n.ops.(1) in
              n.nop <- NStore { size = 8; off };
              n.ops <- [| lo_of dag v; base |];
              (* the high store chains after this one *)
              let hi_store =
                mk dag ~ops:[| hi_of dag v; base |] ~chain:n ~ty:Lir.Void
                  (NStore { size = 8; off = off + 8 })
              in
              (match dag.last_chain with
              | Some c when c == n -> dag.last_chain <- Some hi_store
              | _ ->
                  (* splice hi_store into the chain after n *)
                  List.iter
                    (fun (m : node) ->
                      match m.chain with
                      | Some c when c == n && m != hi_store -> m.chain <- Some hi_store
                      | _ -> ())
                    dag.nodes);
              changed := true
          | _ -> ())
      dag.nodes
  done

(* ------------------------------------------------------------------ *)
(* Build: LIR instructions (a block or block remainder) to DAG *)

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

exception Dag_unsupported of string

(* Build the DAG for instructions [insts] (in order). Values defined
   outside become CopyFromReg leaves; values used outside get CopyToReg. *)
let build (fl : Flow.t) (insts : Lir.inst list) : dag =
  let dag = new_dag () in
  let node_of_inst : (int, node) Hashtbl.t = Hashtbl.create 32 in
  let in_range = Hashtbl.create 32 in
  List.iter (fun (i : Lir.inst) -> Hashtbl.replace in_range i.Lir.iid ()) insts;
  let rec value_node (v : Lir.value) : node =
    match v with
    | Lir.Vconst (ty, c) -> mk dag ~ty (NConst c)
    | Lir.Vconst128 c -> mk dag ~ty:Lir.I128 (NConst128 c)
    | Lir.Varg (k, ty) ->
        if ty = Lir.I128 || ty = Lir.Pair then begin
          let lo = mk dag ~ty:Lir.I64 (NCopy_from_reg (Flow.arg_vreg fl k)) in
          let hi = mk dag ~ty:Lir.I64 (NCopy_from_reg (Flow.arg_vreg_hi fl k)) in
          mk dag ~ops:[| lo; hi |] ~ty NMake_pair
        end
        else mk dag ~ty (NCopy_from_reg (Flow.arg_vreg fl k))
    | Lir.Vinst i -> (
        match Hashtbl.find_opt node_of_inst i.Lir.iid with
        | Some n -> n
        | None ->
            (* defined outside this DAG: live-in vreg(s) *)
            if i.Lir.ity = Lir.I128 || i.Lir.ity = Lir.Pair then begin
              let lo = mk dag ~ty:Lir.I64 (NCopy_from_reg (Flow.inst_vreg fl i)) in
              let hi = mk dag ~ty:Lir.I64 (NCopy_from_reg (Flow.inst_vreg_hi fl i)) in
              mk dag ~ops:[| lo; hi |] ~ty:i.Lir.ity NMake_pair
            end
            else mk dag ~ty:i.Lir.ity (NCopy_from_reg (Flow.inst_vreg fl i)))
  and op1 (i : Lir.inst) = value_node i.Lir.operands.(0)
  and op2 (i : Lir.inst) = (value_node i.Lir.operands.(0), value_node i.Lir.operands.(1))
  in
  let bin i nop =
    let a, b = op2 i in
    mk dag ~ops:[| a; b |] ~ty:i.Lir.ity nop
  in
  (* constant view of a LIR value through pure wrappers (wide shift
     amounts must stay recognizable even when defined in another block) *)
  let rec lir_const (v : Lir.value) =
    match v with
    | Lir.Vconst (_, c) -> Some c
    | Lir.Vconst128 c -> Some (Qcomp_support.I128.to_int64 c)
    | Lir.Vinst j when not j.Lir.deleted -> (
        match j.Lir.iop with
        | Lir.Sext | Lir.Zext | Lir.Trunc | Lir.Freeze | Lir.Pairof | Lir.Pairval ->
            lir_const j.Lir.operands.(0)
        | _ -> None)
    | _ -> None
  in
  let wide_shift i nop =
    match lir_const i.Lir.operands.(1) with
    | Some c ->
        let a = value_node i.Lir.operands.(0) in
        let amt = mk dag ~ty:Lir.I64 (NConst c) in
        mk dag ~ops:[| a; amt |] ~ty:i.Lir.ity nop
    | None -> bin i nop
  in
  let build_inst (i : Lir.inst) : node option =
    match i.Lir.iop with
    | Lir.Add -> Some (bin i NAdd)
    | Lir.Sub -> Some (bin i NSub)
    | Lir.Mul -> Some (bin i NMul)
    | Lir.Sdiv -> Some (bin i NSdiv)
    | Lir.Udiv -> Some (bin i NUdiv)
    | Lir.Srem -> Some (bin i NSrem)
    | Lir.Urem -> Some (bin i NUrem)
    | Lir.And -> Some (bin i NAnd)
    | Lir.Or -> Some (bin i NOr)
    | Lir.Xor -> Some (bin i NXor)
    | Lir.Shl ->
        Some (if i.Lir.ity = Lir.I128 then wide_shift i NShl else bin i NShl)
    | Lir.Lshr ->
        Some (if i.Lir.ity = Lir.I128 then wide_shift i NLshr else bin i NLshr)
    | Lir.Ashr ->
        Some (if i.Lir.ity = Lir.I128 then wide_shift i NAshr else bin i NAshr)
    | Lir.Icmp pred ->
        let a, b = op2 i in
        Some (mk dag ~ops:[| a; b |] ~ty:Lir.I1 (NSetcc pred))
    | Lir.Fcmp pred ->
        let a, b = op2 i in
        Some (mk dag ~ops:[| a; b |] ~ty:Lir.I1 (NFsetcc pred))
    | Lir.Trunc -> Some (mk dag ~ops:[| op1 i |] ~ty:i.Lir.ity NTrunc)
    | Lir.Zext -> Some (mk dag ~ops:[| op1 i |] ~ty:i.Lir.ity NZext)
    | Lir.Sext -> Some (mk dag ~ops:[| op1 i |] ~ty:i.Lir.ity NSext)
    | Lir.Sitofp -> Some (mk dag ~ops:[| op1 i |] ~ty:i.Lir.ity NSitofp)
    | Lir.Fptosi -> Some (mk dag ~ops:[| op1 i |] ~ty:i.Lir.ity NFptosi)
    | Lir.Gep ->
        (* as SelectionDAGBuilder: base + index * scale (a shift for a
           power of two) + offset, in generic nodes *)
        let scale, off = Lir.gep_scale_off i in
        let const c = mk dag ~ty:Lir.I64 (NConst c) in
        let addr = value_node i.Lir.operands.(0) in
        let addr =
          match i.Lir.operands.(1) with
          | Lir.Vconst (_, 0L) -> addr
          | index ->
              let index = value_node index in
              let scaled =
                match Lir.scale_shift scale with
                | Some 0 -> index
                | Some k -> mk dag ~ops:[| index; const (Int64.of_int k) |] ~ty:Lir.I64 NShl
                | None -> mk dag ~ops:[| index; const (Int64.of_int scale) |] ~ty:Lir.I64 NMul
              in
              mk dag ~ops:[| addr; scaled |] ~ty:Lir.Ptr NAdd
        in
        Some (if Int64.equal off 0L then addr else mk dag ~ops:[| addr; const off |] ~ty:Lir.Ptr NAdd)
    | Lir.Load ->
        let size = max 1 (Lir.ty_size_bits i.Lir.ity / 8) in
        let sext = i.Lir.ity <> Lir.I1 && size < 8 in
        Some (mk_effect dag ~ops:[| op1 i |] ~ty:i.Lir.ity (NLoad { size; sext; off = 0 }))
    | Lir.Store ->
        let v, p = op2 i in
        let size = max 1 (Lir.ty_size_bits (Lir.value_ty i.Lir.operands.(0)) / 8) in
        Some (mk_effect dag ~ops:[| v; p |] ~ty:Lir.Void (NStore { size; off = 0 }))
    | Lir.Select ->
        let c = value_node i.Lir.operands.(0) in
        let a = value_node i.Lir.operands.(1) in
        let b = value_node i.Lir.operands.(2) in
        Some (mk dag ~ops:[| c; a; b |] ~ty:i.Lir.ity NSelect)
    | Lir.Call (Lir.Intr intr) -> (
        match intr with
        | Lir.Crc32 ->
            let a, b = op2 i in
            Some (mk dag ~ops:[| a; b |] ~ty:Lir.I64 NCrc32)
        | Lir.Fshr ->
            let a = value_node i.Lir.operands.(0) in
            let amt = value_node i.Lir.operands.(2) in
            Some (mk dag ~ops:[| a; amt |] ~ty:i.Lir.ity NRotr)
        | Lir.Sadd_ovf _ -> Some (bin i (NOvf `Add))
        | Lir.Ssub_ovf _ -> Some (bin i (NOvf `Sub))
        | Lir.Smul_ovf _ -> Some (bin i (NOvf `Mul)))
    | Lir.Extractvalue 1 ->
        (* the overflow flag of an intrinsic *)
        Some (mk dag ~ops:[| op1 i |] ~ty:Lir.I1 NOvf_flag)
    | Lir.Extractvalue _ -> Some (mk dag ~ops:[| op1 i |] ~ty:Lir.I64 NPair_lo)
    | Lir.Makepair ->
        let a, b = op2 i in
        Some (mk dag ~ops:[| a; b |] ~ty:Lir.Pair NMake_pair)
    | Lir.Pairof -> Some (mk dag ~ops:[| op1 i |] ~ty:Lir.Pair NMake_pair |> fun n ->
        (* Pairof wraps an i128 value: split it *)
        n.nop <- NMake_pair;
        n.ops <- [| lo_of dag n.ops.(0); hi_of dag n.ops.(0) |];
        n)
    | Lir.Pairval ->
        let p = op1 i in
        Some (mk dag ~ops:[| lo_of dag p; hi_of dag p |] ~ty:Lir.I128 NMake_pair)
    | Lir.Freeze -> Some (op1 i)
    | Lir.Call (Lir.Extern sym) ->
        let args = Array.map value_node i.Lir.operands in
        Some
          (mk_effect dag ~ops:args ~ty:i.Lir.ity
             (NCall { sym = fl.Flow.extern_name sym; ret2 = i.Lir.ity = Lir.I128 || i.Lir.ity = Lir.Pair }))
    | Lir.Call (Lir.Named nm) ->
        let args = Array.map value_node i.Lir.operands in
        Some
          (mk_effect dag ~ops:args ~ty:i.Lir.ity
             (NCall { sym = nm; ret2 = i.Lir.ity = Lir.I128 || i.Lir.ity = Lir.Pair }))
    | Lir.Atomicrmw_add ->
        let p, v = op2 i in
        let size = max 1 (Lir.ty_size_bits i.Lir.ity / 8) in
        Some (mk_effect dag ~ops:[| p; v |] ~ty:i.Lir.ity (NAtomic_add size))
    | Lir.Br ->
        Some (mk_effect dag ~ty:Lir.Void (NBr i.Lir.targets.(0).Lir.bid))
    | Lir.Condbr ->
        let c = value_node i.Lir.operands.(0) in
        Some
          (mk_effect dag ~ops:[| c |] ~ty:Lir.Void
             (NBrcond
                { target = i.Lir.targets.(0).Lir.bid; fallthrough = i.Lir.targets.(1).Lir.bid }))
    | Lir.Ret ->
        let ops = Array.map value_node i.Lir.operands in
        Some (mk_effect dag ~ops ~ty:Lir.Void NRet)
    | Lir.Unreachable -> Some (mk_effect dag ~ty:Lir.Void NTrap)
    | Lir.Fadd -> Some (bin i NFadd)
    | Lir.Fsub -> Some (bin i NFsub)
    | Lir.Fmul -> Some (bin i NFmul)
    | Lir.Fdiv -> Some (bin i NFdiv)
    | Lir.Phi -> None (* phis are lowered by the common code *)
  in
  List.iter
    (fun (i : Lir.inst) ->
      match build_inst i with
      | None -> ()
      | Some n ->
          Hashtbl.replace node_of_inst i.Lir.iid n;
          (* values used outside this range need CopyToReg *)
          let used_outside =
            i.Lir.ity <> Lir.Void
            && List.exists
                 (fun (u : Lir.inst) ->
                   (not u.Lir.deleted)
                   && ((not (Hashtbl.mem in_range u.Lir.iid)) || u.Lir.iop = Lir.Phi))
                 i.Lir.users
          in
          if used_outside then begin
            if i.Lir.ity = Lir.I128 || i.Lir.ity = Lir.Pair then begin
              ignore
                (mk_effect dag ~ops:[| lo_of dag n |] ~ty:Lir.Void
                   (NCopy_to_reg (Flow.inst_vreg fl i)));
              ignore
                (mk_effect dag ~ops:[| hi_of dag n |] ~ty:Lir.Void
                   (NCopy_to_reg (Flow.inst_vreg_hi fl i)))
            end
            else
              ignore
                (mk_effect dag ~ops:[| n |] ~ty:Lir.Void
                   (NCopy_to_reg (Flow.inst_vreg fl i)))
          end)
    insts;
  dag

(* ------------------------------------------------------------------ *)
(* Selection: fold addressing modes and immediates into machine forms. *)

let fits_i32 (v : int64) = Int64.of_int32 (Int64.to_int32 v) = v

(* An address as x86 sees one: base + index * scale + disp. *)
type amode = { base : node option; index : node option; scale : int; disp : int64 }

(* X86DAGToDAGISel::matchAddress: fold constants into the displacement and
   one shift or multiply by 1, 2, 4 or 8 into the index, through add trees
   in either operand order; any other node takes a free register slot.
   [None] when neither slot is left. *)
let rec match_address am (n : node) depth =
  let index i scale = Some { am with index = Some i; scale } in
  match n.nop with
  | NConst c -> Some { am with disp = Int64.add am.disp c }
  | NAdd when depth < 6 && not (is_wide n) -> (
      match
        Option.bind (match_address am n.ops.(0) (depth + 1)) (fun am ->
            match_address am n.ops.(1) (depth + 1))
      with
      | Some _ as folded -> folded
      | None -> match_register am n)
  | NShl when am.index = None -> (
      match n.ops.(1).nop with
      | NConst k when k >= 0L && k <= 3L -> index n.ops.(0) (1 lsl Int64.to_int k)
      | _ -> match_register am n)
  | NMul when am.index = None -> (
      match n.ops.(1).nop with
      | NConst (1L | 2L | 4L | 8L as c) -> index n.ops.(0) (Int64.to_int c)
      | _ -> match_register am n)
  | _ -> match_register am n

and match_register am n =
  if am.base = None then Some { am with base = Some n }
  else if am.index = None then Some { am with index = Some n; scale = 1 }
  else None

(* Selection: a load's whole address becomes one addressing mode when every
   user of the address is a load (an address also used as a value keeps
   its computation, and the load reads it); otherwise, and for stores, a
   constant offset still folds. x64 takes [base + index * scale + disp32];
   a64 only [base + index lsl 0|log2 size], and a base-less x64 address
   becomes a materialized constant base there. *)
let select ~x64 dag =
  (* per node: its uses, and those that are a load's address *)
  let uses = Array.make dag.nnodes 0 and load_uses = Array.make dag.nnodes 0 in
  List.iter
    (fun (n : node) ->
      if not n.dead then
        Array.iteri
          (fun k (o : node) ->
            uses.(o.nid) <- uses.(o.nid) + 1;
            match n.nop with
            | NLoad _ when k = 0 -> load_uses.(o.nid) <- load_uses.(o.nid) + 1
            | _ -> ())
          n.ops)
    dag.nodes;
  let only_loads (a : node) = uses.(a.nid) = load_uses.(a.nid) in
  let const_offset n ~off k =
    match n.nop with
    | NAdd when Array.length n.ops = 2 -> (
        match n.ops.(1).nop with
        | NConst c when fits_i32 (Int64.add c (Int64.of_int off)) -> k n.ops.(0) (off + Int64.to_int c)
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (n : node) ->
      if not n.dead then
        match n.nop with
        | NLoad { size; sext; off } -> (
            let addr = n.ops.(0) in
            let fold nop ops =
              n.nop <- nop;
              n.ops <- ops
            in
            let load base disp = fold (NLoad { size; sext; off = Int64.to_int disp }) [| base |] in
            let loadx base index scale disp =
              fold (NLoadx { size; sext; scale; off = Int64.to_int disp }) (Array.append base [| index |])
            in
            let plain () = const_offset addr ~off (fun base off -> load base (Int64.of_int off)) in
            let start = { base = None; index = None; scale = 1; disp = Int64.of_int off } in
            match if only_loads addr then match_address start addr 0 else None with
            | Some am when fits_i32 am.disp -> (
                match (am.base, am.index) with
                | Some b, None | None, Some b when am.scale = 1 -> load b am.disp
                | base, Some i when x64 -> loadx (Array.of_list (Option.to_list base)) i am.scale am.disp
                | _, Some _ when am.scale <> 1 && am.scale <> size -> plain ()
                | Some b, Some i when Int64.equal am.disp 0L -> loadx [| b |] i am.scale 0L
                | None, Some i -> loadx [| mk dag ~ty:Lir.Ptr (NConst am.disp) |] i am.scale 0L
                | _ -> plain ())
            | _ -> plain ())
        | NStore { size; off } ->
            const_offset n.ops.(1) ~off (fun base off ->
                n.nop <- NStore { size; off };
                n.ops <- [| n.ops.(0); base |])
        | _ -> ())
    dag.nodes

(* ------------------------------------------------------------------ *)
(* Scheduling: linearize in topological order and emit MIR. *)

let alu_of = function
  | NAdd -> Minst.Add
  | NSub -> Minst.Sub
  | NMul -> Minst.Mul
  | NAnd -> Minst.And
  | NOr -> Minst.Or
  | NXor -> Minst.Xor
  | NShl -> Minst.Shl
  | NLshr -> Minst.Shr
  | NAshr -> Minst.Sar
  | NRotr -> Minst.Ror
  | _ -> invalid_arg "not an alu node"

let canon_bits (ty : Lir.ty) =
  match ty with Lir.I8 -> 8 | Lir.I16 -> 16 | Lir.I32 -> 32 | Lir.I1 -> 1 | _ -> 0

let rax = 0
let rdx = 2

let schedule (fl : Flow.t) (dag : dag) =
  let mir = fl.Flow.mir in
  let push i = Flow.push fl (Mir.M i) in
  let x64 = Flow.is_x64 fl in
  let canonicalize ty d =
    let bits = canon_bits ty in
    if bits <> 0 && bits < 64 then
      push (Minst.Ext { dst = d; src = d; bits; signed = bits > 1 })
  in
  (* lazy result registers; constants materialize at first use *)
  let rec reg_of (n : node) =
    if n.result_vreg >= 0 then n.result_vreg
    else begin
      (match n.nop with
      | NConst c ->
          let r = Mir.new_vreg mir in
          push (Minst.Mov_ri (r, c));
          n.result_vreg <- r
      | NConst128 c ->
          let r = Mir.new_vreg mir in
          push (Minst.Mov_ri (r, Qcomp_support.I128.to_int64 c));
          n.result_vreg <- r
      | NCopy_from_reg v -> n.result_vreg <- v
      | NMake_pair -> n.result_vreg <- reg_of n.ops.(0)
      | NPair_lo -> n.result_vreg <- reg_of n.ops.(0)
      | NPair_hi -> n.result_vreg <- reg2_of n.ops.(0)
      | _ ->
          failwith
            "seldag: node used before being scheduled");
      n.result_vreg
    end
  and reg2_of (n : node) =
    if n.result_vreg2 >= 0 then n.result_vreg2
    else begin
      (match n.nop with
      | NConst c ->
          let r = Mir.new_vreg mir in
          push (Minst.Mov_ri (r, Int64.shift_right c 63));
          n.result_vreg2 <- r
      | NConst128 c ->
          let r = Mir.new_vreg mir in
          push
            (Minst.Mov_ri
               ( r,
                 Qcomp_support.I128.to_int64
                   (Qcomp_support.I128.shift_right_logical c 64) ));
          n.result_vreg2 <- r
      | NMake_pair -> n.result_vreg2 <- reg_of n.ops.(1)
      | _ -> failwith "seldag: no second result");
      n.result_vreg2
    end
  in
  let imm_of (n : node) = match n.nop with NConst c when fits_i32 c -> Some c | _ -> None in
  (* ISel emits generic three-address MIR; the TwoAddress pass rewrites it
     for X64 (Sec. V-B4). *)
  let alu3 op d a b = push (Minst.Alu_rrr (op, d, a, b)) in
  let alu3i op d a imm = push (Minst.Alu_rri (op, d, a, imm)) in
  let fixed_mul ~signed ~dlo ~dhi a b =
    if x64 then begin
      let p0 = Flow.len fl in
      push (Minst.Mov_rr (rax, a));
      push (Minst.Mul_wide { signed; src = b });
      push (Minst.Mov_rr (dlo, rax));
      if dhi >= 0 then push (Minst.Mov_rr (dhi, rdx));
      Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rax;
      Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rdx
    end
    else begin
      if dhi >= 0 then push (Minst.Mul_hi { signed; dst = dhi; a; b });
      push (Minst.Alu_rrr (Minst.Mul, dlo, a, b))
    end
  in
  let fixed_div ~signed ~want_rem ~dst a b =
    if x64 then begin
      let p0 = Flow.len fl in
      push (Minst.Mov_rr (rax, a));
      if signed then begin
        push (Minst.Mov_rr (rdx, rax));
        push (Minst.Alu_ri (Minst.Sar, rdx, 63L))
      end
      else push (Minst.Mov_ri (rdx, 0L));
      push (Minst.Div { signed; src = b });
      push (Minst.Mov_rr (dst, (if want_rem then rdx else rax)));
      Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rax;
      Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:(Flow.len fl - 1) rdx
    end
    else if want_rem then begin
      let q = Mir.new_vreg mir in
      let t = Mir.new_vreg mir in
      push (Minst.Div_rrr { signed; dst = q; a; b });
      push (Minst.Alu_rrr (Minst.Mul, t, q, b));
      push (Minst.Alu_rrr (Minst.Sub, dst, a, t))
    end
    else push (Minst.Div_rrr { signed; dst; a; b })
  in
  let emit_cmp a b =
    match imm_of b with
    | Some c -> push (Minst.Cmp_ri (reg_of a, c))
    | None -> push (Minst.Cmp_rr (reg_of a, reg_of b))
  in
  let fresh () = Mir.new_vreg mir in
  let emit_node (n : node) =
    match n.nop with
    | NConst _ | NConst128 _ | NCopy_from_reg _ | NArg _ | NMake_pair
    | NPair_lo | NPair_hi ->
        () (* materialized lazily through reg_of *)
    | NAdd | NSub | NMul | NAnd | NOr | NXor | NShl | NLshr | NAshr | NRotr ->
        let d = fresh () in
        let op = alu_of n.nop in
        (match imm_of n.ops.(1) with
        | Some c when n.nop <> NMul || x64 -> alu3i op d (reg_of n.ops.(0)) c
        | _ -> alu3 op d (reg_of n.ops.(0)) (reg_of n.ops.(1)));
        canonicalize n.nty d;
        n.result_vreg <- d
    | NSdiv | NUdiv | NSrem | NUrem ->
        let d = fresh () in
        let signed = n.nop = NSdiv || n.nop = NSrem in
        let want_rem = n.nop = NSrem || n.nop = NUrem in
        fixed_div ~signed ~want_rem ~dst:d (reg_of n.ops.(0)) (reg_of n.ops.(1));
        canonicalize n.nty d;
        n.result_vreg <- d
    | NSetcc pred ->
        emit_cmp n.ops.(0) n.ops.(1);
        let d = fresh () in
        push (Minst.Setcc (cmp_to_cond pred, d));
        n.result_vreg <- d
    | NFsetcc pred ->
        push (Minst.Fcmp_rr (reg_of n.ops.(0), reg_of n.ops.(1)));
        let d = fresh () in
        push (Minst.Setcc (cmp_to_cond pred, d));
        n.result_vreg <- d
    | NTrunc ->
        let d = fresh () in
        push (Minst.Mov_rr (d, reg_of n.ops.(0)));
        if n.nty = Lir.I1 then push (Minst.Alu_rri (Minst.And, d, d, 1L))
        else canonicalize n.nty d;
        n.result_vreg <- d
    | NZext ->
        let d = fresh () in
        let bits = Lir.ty_size_bits n.ops.(0).nty in
        if bits >= 64 then push (Minst.Mov_rr (d, reg_of n.ops.(0)))
        else push (Minst.Ext { dst = d; src = reg_of n.ops.(0); bits; signed = false });
        n.result_vreg <- d
    | NSext ->
        (* canonical sub-64 values are already sign-extended *)
        let d = fresh () in
        push (Minst.Mov_rr (d, reg_of n.ops.(0)));
        n.result_vreg <- d
    | NSitofp ->
        let d = fresh () in
        push (Minst.Cvt_si2f (d, reg_of n.ops.(0)));
        n.result_vreg <- d
    | NFptosi ->
        let d = fresh () in
        push (Minst.Cvt_f2si (d, reg_of n.ops.(0)));
        n.result_vreg <- d
    | NLoad { size; sext; off } ->
        let d = fresh () in
        push (Minst.Ld { dst = d; base = reg_of n.ops.(0); off; size; sext });
        n.result_vreg <- d
    | NLoadx { size; sext; scale; off } ->
        let d = fresh () in
        let base, index =
          match n.ops with
          | [| b; i |] -> (reg_of b, reg_of i)
          | ops -> (-1, reg_of ops.(0))
        in
        push (Minst.Ldx { dst = d; base; index; scale; off; size; sext });
        n.result_vreg <- d
    | NStore { size; off } ->
        push (Minst.St { src = reg_of n.ops.(0); base = reg_of n.ops.(1); off; size })
    | NCrc32 ->
        let d = fresh () in
        push (Minst.Crc32_rrr (d, reg_of n.ops.(0), reg_of n.ops.(1)));
        n.result_vreg <- d
    | NOvf kind ->
        let d = fresh () in
        let flag = fresh () in
        let bits = canon_bits n.nty in
        let op =
          match kind with `Add -> Minst.Add | `Sub -> Minst.Sub | `Mul -> Minst.Mul
        in
        alu3 op d (reg_of n.ops.(0)) (reg_of n.ops.(1));
        if bits = 0 || bits >= 64 then push (Minst.Setcc (Minst.Ov, flag))
        else begin
          (* narrow: canonicality check *)
          let t = fresh () in
          push (Minst.Ext { dst = t; src = d; bits; signed = true });
          push (Minst.Cmp_rr (t, d));
          push (Minst.Setcc (Minst.Ne, flag));
          push (Minst.Mov_rr (d, t))
        end;
        n.result_vreg <- d;
        n.result_vreg2 <- flag
    | NOvf_flag -> (
        match Hashtbl.find_opt fl.Flow.dag_ovf n.ops.(0).nid with
        | Some f -> n.result_vreg <- f
        | None -> n.result_vreg <- n.ops.(0).result_vreg2)
    | NSelect ->
        let d = fresh () in
        let a = reg_of n.ops.(1) and b = reg_of n.ops.(2) in
        push (Minst.Cmp_ri (reg_of n.ops.(0), 0L));
        push (Minst.Csel { cond = Minst.Ne; dst = d; a; b });
        n.result_vreg <- d
    | NCall { sym; ret2 } ->
        let arg_regs = fl.Flow.target.Target.arg_regs in
        let p0 = Flow.len fl in
        let k = ref 0 in
        let used = ref [] in
        Array.iter
          (fun (a : node) ->
            if a.nty = Lir.I128 || a.nty = Lir.Pair then begin
              push (Minst.Mov_rr (arg_regs.(!k), reg_of a));
              used := arg_regs.(!k) :: !used;
              incr k;
              push (Minst.Mov_rr (arg_regs.(!k), reg2_of a));
              used := arg_regs.(!k) :: !used;
              incr k
            end
            else begin
              push (Minst.Mov_rr (arg_regs.(!k), reg_of a));
              used := arg_regs.(!k) :: !used;
              incr k
            end)
          n.ops;
        Flow.push fl (Mir.Mcall { sym });
        let call_pos = Flow.len fl - 1 in
        Mir.record_call mir ~block:fl.Flow.cur ~pos:call_pos;
        List.iter
          (fun p -> Mir.reserve mir ~block:fl.Flow.cur ~from_pos:p0 ~to_pos:call_pos p)
          !used;
        if n.nty <> Lir.Void then begin
          let r0 = fl.Flow.target.Target.ret_regs.(0) in
          let d = fresh () in
          push (Minst.Mov_rr (d, r0));
          n.result_vreg <- d;
          Mir.reserve mir ~block:fl.Flow.cur ~from_pos:call_pos ~to_pos:(Flow.len fl - 1) r0;
          if ret2 then begin
            let r1 = fl.Flow.target.Target.ret_regs.(1) in
            let d2 = fresh () in
            push (Minst.Mov_rr (d2, r1));
            n.result_vreg2 <- d2;
            Mir.reserve mir ~block:fl.Flow.cur ~from_pos:call_pos ~to_pos:(Flow.len fl - 1) r1
          end
        end
    | NAtomic_add size ->
        let d = fresh () in
        let t = fresh () in
        push (Minst.Ld { dst = d; base = reg_of n.ops.(0); off = 0; size; sext = size < 8 });
        alu3 Minst.Add t d (reg_of n.ops.(1));
        push (Minst.St { src = t; base = reg_of n.ops.(0); off = 0; size });
        n.result_vreg <- d
    | NBr target -> Flow.push fl (Mir.M (Minst.Jmp target))
    | NBrcc { cond; target; fallthrough } ->
        emit_cmp n.ops.(0) n.ops.(1);
        Flow.push fl (Mir.M (Minst.Jcc (cond, target)));
        Flow.push fl (Mir.M (Minst.Jmp fallthrough))
    | NBrcond { target; fallthrough } ->
        push (Minst.Cmp_ri (reg_of n.ops.(0), 0L));
        Flow.push fl (Mir.M (Minst.Jcc (Minst.Ne, target)));
        Flow.push fl (Mir.M (Minst.Jmp fallthrough))
    | NRet ->
        (if Array.length n.ops > 0 then begin
           let v = n.ops.(0) in
           push (Minst.Mov_rr (fl.Flow.target.Target.ret_regs.(0), reg_of v));
           if v.nty = Lir.I128 || v.nty = Lir.Pair then
             push (Minst.Mov_rr (fl.Flow.target.Target.ret_regs.(1), reg2_of v))
         end);
        push Minst.Ret
    | NTrap -> push (Minst.Brk 0)
    | NCopy_to_reg v -> push (Minst.Mov_rr (v, reg_of n.ops.(0)))
    | NFadd | NFsub | NFmul | NFdiv ->
        let d = fresh () in
        let fop =
          match n.nop with
          | NFadd -> Minst.Fadd
          | NFsub -> Minst.Fsub
          | NFmul -> Minst.Fmul
          | _ -> Minst.Fdiv
        in
        push (Minst.Falu_rrr (fop, d, reg_of n.ops.(0), reg_of n.ops.(1)));
        n.result_vreg <- d
    | NAdd128 | NSub128 | NAdd128_ovf | NSub128_ovf ->
        let sub = n.nop = NSub128 || n.nop = NSub128_ovf in
        let dlo = fresh () and dhi = fresh () in
        let alo = reg_of n.ops.(0) and ahi = reg_of n.ops.(1) in
        let blo = reg_of n.ops.(2) and bhi = reg_of n.ops.(3) in
        push (Minst.Alu_rrr ((if sub then Minst.Sub else Minst.Add), dlo, alo, blo));
        push (Minst.Alu_rrr ((if sub then Minst.Sbb else Minst.Adc), dhi, ahi, bhi));
        n.result_vreg <- dlo;
        n.result_vreg2 <- dhi;
        if n.nop = NAdd128_ovf || n.nop = NSub128_ovf then begin
          let flag = fresh () in
          push (Minst.Setcc (Minst.Ov, flag));
          (* flag projection looks at result_vreg2 of the OVF node; store
             the flag in a third slot: reuse a map via an extra node field *)
          n.result_vreg2 <- dhi;
          (* NOvf_flag on 128-bit ops reads from here: *)
          Hashtbl.replace fl.Flow.dag_ovf n.nid flag
        end
    | NMul128 ->
        let dlo = fresh () and dhi = fresh () in
        let alo = reg_of n.ops.(0) and ahi = reg_of n.ops.(1) in
        let blo = reg_of n.ops.(2) and bhi = reg_of n.ops.(3) in
        let t = fresh () in
        let t2 = fresh () in
        fixed_mul ~signed:false ~dlo ~dhi alo blo;
        alu3 Minst.Mul t ahi blo;
        push (Minst.Alu_rrr (Minst.Add, dhi, dhi, t));
        alu3 Minst.Mul t2 alo bhi;
        push (Minst.Alu_rrr (Minst.Add, dhi, dhi, t2));
        n.result_vreg <- dlo;
        n.result_vreg2 <- dhi
    | NMul_wide signed ->
        let dlo = fresh () and dhi = fresh () in
        fixed_mul ~signed ~dlo ~dhi (reg_of n.ops.(0)) (reg_of n.ops.(1));
        n.result_vreg <- dlo;
        n.result_vreg2 <- dhi
    | NSetcc128 pred ->
        let d = fresh () and t = fresh () in
        let alo = reg_of n.ops.(0) and ahi = reg_of n.ops.(1) in
        let blo = reg_of n.ops.(2) and bhi = reg_of n.ops.(3) in
        (match pred with
        | Qcomp_ir.Op.Eq | Qcomp_ir.Op.Ne ->
            push (Minst.Cmp_rr (alo, blo));
            push (Minst.Setcc (Minst.Eq, t));
            push (Minst.Cmp_rr (ahi, bhi));
            push (Minst.Setcc (Minst.Eq, d));
            push (Minst.Alu_rrr (Minst.And, d, d, t));
            if pred = Qcomp_ir.Op.Ne then push (Minst.Alu_rri (Minst.Xor, d, d, 1L))
        | _ ->
            let unsigned_pred =
              match pred with
              | Qcomp_ir.Op.Slt | Qcomp_ir.Op.Ult -> Minst.Ult
              | Qcomp_ir.Op.Sle | Qcomp_ir.Op.Ule -> Minst.Ule
              | Qcomp_ir.Op.Sgt | Qcomp_ir.Op.Ugt -> Minst.Ugt
              | _ -> Minst.Uge
            in
            let hi_pred =
              match pred with
              | Qcomp_ir.Op.Slt | Qcomp_ir.Op.Sle -> Minst.Slt
              | Qcomp_ir.Op.Sgt | Qcomp_ir.Op.Sge -> Minst.Sgt
              | Qcomp_ir.Op.Ult | Qcomp_ir.Op.Ule -> Minst.Ult
              | _ -> Minst.Ugt
            in
            push (Minst.Cmp_rr (alo, blo));
            push (Minst.Setcc (unsigned_pred, t));
            push (Minst.Cmp_rr (ahi, bhi));
            push (Minst.Setcc (hi_pred, d));
            push (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t }));
        n.result_vreg <- d
    | NSelect128 ->
        let dlo = fresh () and dhi = fresh () in
        let c = reg_of n.ops.(0) in
        let alo = reg_of n.ops.(1) and ahi = reg_of n.ops.(2) in
        let blo = reg_of n.ops.(3) and bhi = reg_of n.ops.(4) in
        push (Minst.Cmp_ri (c, 0L));
        push (Minst.Csel { cond = Minst.Ne; dst = dlo; a = alo; b = blo });
        push (Minst.Csel { cond = Minst.Ne; dst = dhi; a = ahi; b = bhi });
        n.result_vreg <- dlo;
        n.result_vreg2 <- dhi
  in
  ignore emit_node;
  (* mark live nodes reachable from roots *)
  let marked = Hashtbl.create 64 in
  let rec mark (n : node) =
    if not (Hashtbl.mem marked n.nid) then begin
      Hashtbl.add marked n.nid ();
      Array.iter mark n.ops;
      match n.chain with Some c -> mark c | None -> ()
    end
  in
  let is_root (n : node) =
    match n.nop with
    | NCopy_to_reg _ | NStore _ | NCall _ | NBr _ | NBrcc _ | NBrcond _
    | NRet | NTrap | NAtomic_add _ | NSdiv | NUdiv | NSrem | NUrem ->
        true
    | _ -> false
  in
  List.iter (fun n -> if (not n.dead) && is_root n then mark n) dag.nodes;
  (* Kahn's algorithm over operand + chain edges; terminators held back *)
  let nodes = List.filter (fun (n : node) -> (not n.dead) && Hashtbl.mem marked n.nid) (List.rev dag.nodes) in
  let is_term (n : node) =
    match n.nop with NBr _ | NBrcc _ | NBrcond _ | NRet | NTrap -> true | _ -> false
  in
  let emitted = Hashtbl.create 64 in
  let lazy_node (n : node) =
    match n.nop with
    | NConst _ | NConst128 _ | NCopy_from_reg _ | NMake_pair | NPair_lo | NPair_hi -> true
    | _ -> false
  in
  let rec op_ready (o : node) =
    o.dead
    || Hashtbl.mem emitted o.nid
    || (not (Hashtbl.mem marked o.nid))
    || (lazy_node o && Array.for_all op_ready o.ops)
  in
  let ready (n : node) =
    Array.for_all op_ready n.ops
    && (match n.chain with
       | Some c -> c.dead || Hashtbl.mem emitted c.nid || not (Hashtbl.mem marked c.nid)
       | None -> true)
  in
  let rec sweep pending =
    let still = ref [] in
    let progress = ref false in
    List.iter
      (fun n ->
        if ready n then begin
          emit_node n;
          Hashtbl.add emitted n.nid ();
          progress := true
        end
        else still := n :: !still)
      pending;
    let still = List.rev !still in
    if still <> [] then
      if !progress then sweep still
      else begin
        List.iter
          (fun (n : node) ->
            Printf.eprintf "stuck node %d nop=%s nty=%d ops=[%s] chain=%s\n" n.nid
              (match n.nop with
               | NConst _ -> "const" | NConst128 _ -> "const128"
               | NCopy_from_reg _ -> "cfr" | NArg _ -> "arg" | NAdd -> "add"
               | NSub -> "sub" | NMul -> "mul" | NSdiv -> "sdiv" | NUdiv -> "udiv"
               | NSrem -> "srem" | NUrem -> "urem" | NAnd -> "and" | NOr -> "or"
               | NXor -> "xor" | NShl -> "shl" | NLshr -> "lshr" | NAshr -> "ashr"
               | NRotr -> "rotr" | NSetcc _ -> "setcc" | NFsetcc _ -> "fsetcc"
               | NTrunc -> "trunc" | NZext -> "zext" | NSext -> "sext"
               | NSitofp -> "sitofp" | NFptosi -> "fptosi" | NLoad _ | NLoadx _ -> "load"
               | NStore _ -> "store" | NCall _ -> "call" | NCrc32 -> "crc32"
               | NOvf _ -> "ovf" | NOvf_flag -> "ovfflag" | NSelect -> "select"
               | NBr _ -> "br" | NBrcc _ -> "brcc" | NBrcond _ -> "brcond"
               | NRet -> "ret" | NTrap -> "trap" | NFadd -> "fadd" | NFsub -> "fsub"
               | NFmul -> "fmul" | NFdiv -> "fdiv" | NAtomic_add _ -> "atomic"
               | NCopy_to_reg _ -> "ctr" | NPair_lo -> "pairlo" | NPair_hi -> "pairhi"
               | NMake_pair -> "mkpair" | NAdd128 -> "add128" | NSub128 -> "sub128"
               | NAdd128_ovf -> "add128o" | NSub128_ovf -> "sub128o"
               | NMul128 -> "mul128" | NMul_wide _ -> "mulwide"
               | NSetcc128 _ -> "setcc128" | NSelect128 -> "select128")
              (Hashtbl.hash n.nty)
              (String.concat ";" (Array.to_list (Array.map (fun (o:node) -> string_of_int o.nid) n.ops)))
              (match n.chain with Some c -> string_of_int c.nid | None -> "-"))
          still;
        failwith "seldag: cycle in DAG scheduling"
      end
  in
  let terms, rest = List.partition is_term nodes in
  sweep (List.filter (fun n -> not (lazy_node n)) rest);
  List.iter
    (fun n ->
      emit_node n;
      Hashtbl.add emitted n.nid ())
    terms

(* Run the full DAG pipeline on a list of LIR instructions. *)
let run (fl : Flow.t) (insts : Lir.inst list) =
  if insts <> [] then begin
    Hashtbl.reset fl.Flow.dag_ovf;
    let dag = build fl insts in
    (* combine round 1 *)
    let rec fix k = if k > 0 && combine dag then fix (k - 1) in
    fix 4;
    legalize dag;
    (* combine round 2 (post-legalization) *)
    fix 2;
    select ~x64:(Flow.is_x64 fl) dag;
    schedule fl dag
  end
