(** Umbra IR -> LLVM-IR translation (Sec. V).

    Mostly a straightforward instruction-by-instruction mapping: overflow
    arithmetic becomes overflow intrinsics followed by a branch to a trap
    block, [crc32] and [rotr] become intrinsic calls, and long-mul-fold
    expands into an i128 multiply/shift/xor sequence. The 128-bit
    multiplication with overflow gets the custom lowering from Sec. V-A1:
    an inline run-time check for 64-bit-representable operands with a fast
    widening-multiply path, calling the hand-optimized runtime helper only
    when a full multiplication is needed.

    When [pairs_as_struct] is set, 128-bit values are wrapped in the
    anonymous {i64,i64} struct representation ([Pairof]/[Pairval] model
    the insertvalue/extractvalue chains) — the representation whose
    elimination Sec. V-A2 credits with large FastISel improvements. *)

open Qcomp_ir

type config = { pairs_as_struct : bool; debug_info : bool }

let default_config = { pairs_as_struct = false; debug_info = false }

let lty (t : Ty.t) : Lir.ty =
  match t with
  | Ty.Void -> Lir.Void
  | Ty.I1 -> Lir.I1
  | Ty.I8 -> Lir.I8
  | Ty.I16 -> Lir.I16
  | Ty.I32 -> Lir.I32
  | Ty.I64 -> Lir.I64
  | Ty.I128 -> Lir.I128
  | Ty.Ptr -> Lir.Ptr
  | Ty.F64 -> Lir.F64

type ctx = {
  src : Func.t;
  f : Lir.func;
  cfg : config;
  mutable cur : Lir.block;
  values : Lir.value array;  (** Umbra value -> LIR value (pair-wrapped) *)
  lblocks : Lir.block array;
  mutable trap_block : Lir.block option;
}

let vconst ty v = Lir.Vconst (ty, v)

let emit ctx ~iop ~ity ?(operands = [||]) ?(phi_blocks = [||]) ?(targets = [||]) () =
  Lir.Vinst (Lir.mk_inst ctx.f ctx.cur ~iop ~ity ~operands ~phi_blocks ~targets ())

(* [base + off]: a load's or store's constant offset as a GEP *)
let field_addr ctx base off =
  if Int64.equal off 0L then base
  else
    emit ctx ~iop:Lir.Gep ~ity:Lir.Ptr
      ~operands:(Lir.gep_operands ~base ~index:(vconst Lir.I64 0L) ~scale:1 ~off)
      ()

(* Read an operand as a plain value; unwraps the struct representation. *)
let use ctx v =
  match ctx.values.(v) with
  | Lir.Vinst i when i.Lir.ity = Lir.Pair ->
      emit ctx ~iop:Lir.Pairval ~ity:Lir.I128 ~operands:[| ctx.values.(v) |] ()
  | other -> other

(* Bind a result; wraps i128 results when in struct mode. *)
let bind ctx v (lv : Lir.value) =
  let lv =
    if ctx.cfg.pairs_as_struct && Lir.value_ty lv = Lir.I128 then
      emit ctx ~iop:Lir.Pairof ~ity:Lir.Pair ~operands:[| lv |] ()
    else lv
  in
  ctx.values.(v) <- lv

let trap_block ctx =
  match ctx.trap_block with
  | Some b -> b
  | None ->
      let b = Lir.new_block ctx.f in
      let saved = ctx.cur in
      ctx.cur <- b;
      ignore
        (emit ctx ~iop:(Lir.Call (Lir.Named "umbra_throwOverflow")) ~ity:Lir.Void ());
      ignore (emit ctx ~iop:Lir.Unreachable ~ity:Lir.Void ());
      ctx.cur <- saved;
      ctx.trap_block <- Some b;
      b

(* overflow intrinsic + flag check + branch to trap *)
let emit_ovf ctx intr ity a b =
  let call = emit ctx ~iop:(Lir.Call (Lir.Intr intr)) ~ity ~operands:[| a; b |] () in
  let flag =
    emit ctx ~iop:(Lir.Extractvalue 1) ~ity:Lir.I1 ~operands:[| call |] ()
  in
  let tb = trap_block ctx in
  let cont = Lir.new_block ctx.f in
  ignore
    (emit ctx ~iop:Lir.Condbr ~ity:Lir.Void ~operands:[| flag |]
       ~targets:[| tb; cont |] ());
  ctx.cur <- cont;
  call

let translate ~(cfg : config) (m : Lir.modul) (src : Func.t) : Lir.func =
  let f =
    Lir.create_func m ~name:src.Func.name
      ~arg_tys:(Array.map lty src.Func.arg_tys)
      ~ret_ty:(lty src.Func.ret)
  in
  let nb = Func.num_blocks src in
  let ctx =
    {
      src;
      f;
      cfg;
      cur = Lir.dummy_block;
      values = Array.make (max 1 (Func.num_insts src)) (Lir.Vconst (Lir.I64, 0L));
      lblocks = Array.init nb (fun _ -> Lir.dummy_block);
      trap_block = None;
    }
  in
  (* translating a block may split it (overflow checks, the custom 128-bit
     multiply); phis must name the block that actually ends with the edge *)
  let end_lblock = Array.make nb Lir.dummy_block in
  for b = 0 to nb - 1 do
    ctx.lblocks.(b) <- Lir.new_block f
  done;
  (* arguments *)
  for a = 0 to Func.n_args src - 1 do
    ctx.values.(a) <- Lir.Varg (a, lty src.Func.arg_tys.(a))
  done;
  (* pass 1: phi shells (forward references) *)
  let phis = ref [] in
  for b = 0 to nb - 1 do
    ctx.cur <- ctx.lblocks.(b);
    Qcomp_support.Vec.iter
      (fun i ->
        if Func.op src i = Op.Phi then begin
          let ity0 = lty (Func.ty src i) in
          let ity = if cfg.pairs_as_struct && ity0 = Lir.I128 then Lir.Pair else ity0 in
          let p = Lir.mk_inst f ctx.cur ~iop:Lir.Phi ~ity () in
          phis := (i, p) :: !phis;
          ctx.values.(i) <- Lir.Vinst p
        end)
      (Func.block_insts src b)
  done;
  (* pass 2: translate *)
  for b = 0 to nb - 1 do
    ctx.cur <- ctx.lblocks.(b);
    end_lblock.(b) <- ctx.lblocks.(b);
    Qcomp_support.Vec.iter
      (fun i ->
        let ty = Func.ty src i in
        let ity = lty ty in
        let x = Func.x src i and y = Func.y src i and z = Func.z src i in
        let u = use ctx in
        match Func.op src i with
        | Op.Nop | Op.Arg | Op.Phi -> ()
        | Op.Param ->
            (* llvm does not opt in to parameter holes; the serving layer
               hands it fully-baked whole plans only *)
            failwith "llvm: Op.Param reached a non-parameterized back-end"
        | Op.Const -> bind ctx i (vconst ity (Func.imm src i))
        | Op.Const128 ->
            let hi, lo = Func.const128_value src i in
            bind ctx i
              (Lir.Vconst128
                 (Qcomp_support.I128.logor
                    (Qcomp_support.I128.shift_left (Qcomp_support.I128.of_int64 hi) 64)
                    (Qcomp_support.I128.logand
                       (Qcomp_support.I128.of_int64 lo)
                       (Qcomp_support.I128.make ~hi:0L ~lo:(-1L)))))
        | Op.Isnull ->
            bind ctx i
              (emit ctx ~iop:(Lir.Icmp Op.Eq) ~ity:Lir.I1
                 ~operands:[| u x; vconst Lir.Ptr 0L |] ())
        | Op.Isnotnull ->
            bind ctx i
              (emit ctx ~iop:(Lir.Icmp Op.Ne) ~ity:Lir.I1
                 ~operands:[| u x; vconst Lir.Ptr 0L |] ())
        | Op.Add -> bind ctx i (emit ctx ~iop:Lir.Add ~ity ~operands:[| u x; u y |] ())
        | Op.Sub -> bind ctx i (emit ctx ~iop:Lir.Sub ~ity ~operands:[| u x; u y |] ())
        | Op.Mul -> bind ctx i (emit ctx ~iop:Lir.Mul ~ity ~operands:[| u x; u y |] ())
        | Op.Sdiv -> bind ctx i (emit ctx ~iop:Lir.Sdiv ~ity ~operands:[| u x; u y |] ())
        | Op.Udiv -> bind ctx i (emit ctx ~iop:Lir.Udiv ~ity ~operands:[| u x; u y |] ())
        | Op.Srem -> bind ctx i (emit ctx ~iop:Lir.Srem ~ity ~operands:[| u x; u y |] ())
        | Op.Urem -> bind ctx i (emit ctx ~iop:Lir.Urem ~ity ~operands:[| u x; u y |] ())
        | Op.And -> bind ctx i (emit ctx ~iop:Lir.And ~ity ~operands:[| u x; u y |] ())
        | Op.Or -> bind ctx i (emit ctx ~iop:Lir.Or ~ity ~operands:[| u x; u y |] ())
        | Op.Xor -> bind ctx i (emit ctx ~iop:Lir.Xor ~ity ~operands:[| u x; u y |] ())
        | Op.Shl -> bind ctx i (emit ctx ~iop:Lir.Shl ~ity ~operands:[| u x; u y |] ())
        | Op.Lshr -> bind ctx i (emit ctx ~iop:Lir.Lshr ~ity ~operands:[| u x; u y |] ())
        | Op.Ashr -> bind ctx i (emit ctx ~iop:Lir.Ashr ~ity ~operands:[| u x; u y |] ())
        | Op.Rotr ->
            (* funnel-shift intrinsic *)
            bind ctx i
              (emit ctx ~iop:(Lir.Call (Lir.Intr Lir.Fshr)) ~ity
                 ~operands:[| u x; u x; u y |] ())
        | Op.Saddtrap -> bind ctx i (emit_ovf ctx (Lir.Sadd_ovf ity) ity (u x) (u y))
        | Op.Ssubtrap -> bind ctx i (emit_ovf ctx (Lir.Ssub_ovf ity) ity (u x) (u y))
        | Op.Smultrap ->
            if ty = Ty.I128 then begin
              (* custom lowering: runtime 64-bit fit check + widening
                 multiply, else hand-optimized helper call (Sec. V-A1) *)
              let a = u x and b' = u y in
              let lo_a = emit ctx ~iop:Lir.Trunc ~ity:Lir.I64 ~operands:[| a |] () in
              let re_a = emit ctx ~iop:Lir.Sext ~ity:Lir.I128 ~operands:[| lo_a |] () in
              let fits_a =
                emit ctx ~iop:(Lir.Icmp Op.Eq) ~ity:Lir.I1 ~operands:[| re_a; a |] ()
              in
              let lo_b = emit ctx ~iop:Lir.Trunc ~ity:Lir.I64 ~operands:[| b' |] () in
              let re_b = emit ctx ~iop:Lir.Sext ~ity:Lir.I128 ~operands:[| lo_b |] () in
              let fits_b =
                emit ctx ~iop:(Lir.Icmp Op.Eq) ~ity:Lir.I1 ~operands:[| re_b; b' |] ()
              in
              let both =
                emit ctx ~iop:Lir.And ~ity:Lir.I1 ~operands:[| fits_a; fits_b |] ()
              in
              let fast = Lir.new_block ctx.f in
              let slow = Lir.new_block ctx.f in
              let join = Lir.new_block ctx.f in
              ignore
                (emit ctx ~iop:Lir.Condbr ~ity:Lir.Void ~operands:[| both |]
                   ~targets:[| fast; slow |] ());
              ctx.cur <- fast;
              (* sext-sext multiply: exact, the DAG combines it into one
                 widening multiply *)
              let prod =
                emit ctx ~iop:Lir.Mul ~ity:Lir.I128 ~operands:[| re_a; re_b |] ()
              in
              ignore (emit ctx ~iop:Lir.Br ~ity:Lir.Void ~targets:[| join |] ());
              ctx.cur <- slow;
              let call =
                emit ctx
                  ~iop:(Lir.Call (Lir.Named "umbra_i128MulFull"))
                  ~ity:Lir.I128 ~operands:[| a; b' |] ()
              in
              ignore (emit ctx ~iop:Lir.Br ~ity:Lir.Void ~targets:[| join |] ());
              ctx.cur <- join;
              let phi =
                Lir.mk_inst ctx.f join ~iop:Lir.Phi ~ity:Lir.I128
                  ~operands:[| prod; call |]
                  ~phi_blocks:[| fast; slow |] ()
              in
              bind ctx i (Lir.Vinst phi)
            end
            else bind ctx i (emit_ovf ctx (Lir.Smul_ovf ity) ity (u x) (u y))
        | Op.Cmp ->
            let pred = Op.cmp_of_int (Func.n src i) in
            bind ctx i
              (emit ctx ~iop:(Lir.Icmp pred) ~ity:Lir.I1 ~operands:[| u x; u y |] ())
        | Op.Fcmp ->
            let pred = Op.cmp_of_int (Func.n src i) in
            bind ctx i
              (emit ctx ~iop:(Lir.Fcmp pred) ~ity:Lir.I1 ~operands:[| u x; u y |] ())
        | Op.Zext -> bind ctx i (emit ctx ~iop:Lir.Zext ~ity ~operands:[| u x |] ())
        | Op.Sext -> bind ctx i (emit ctx ~iop:Lir.Sext ~ity ~operands:[| u x |] ())
        | Op.Trunc -> bind ctx i (emit ctx ~iop:Lir.Trunc ~ity ~operands:[| u x |] ())
        | Op.Select ->
            bind ctx i
              (emit ctx ~iop:Lir.Select ~ity ~operands:[| u x; u y; u z |] ())
        | Op.Load ->
            let addr = field_addr ctx (u x) (Func.imm src i) in
            bind ctx i (emit ctx ~iop:Lir.Load ~ity ~operands:[| addr |] ())
        | Op.Store ->
            let addr = field_addr ctx (u y) (Func.imm src i) in
            ignore (emit ctx ~iop:Lir.Store ~ity:Lir.Void ~operands:[| u x; addr |] ())
        | Op.Gep ->
            (* one GEP carries base, index, scale and offset, as LLVM IR's
               does: the selectors see the whole address *)
            let index, scale = if y >= 0 then (u y, Func.n src i) else (vconst Lir.I64 0L, 1) in
            bind ctx i
              (emit ctx ~iop:Lir.Gep ~ity:Lir.Ptr
                 ~operands:(Lir.gep_operands ~base:(u x) ~index ~scale ~off:(Func.imm src i))
                 ())
        | Op.Crc32 ->
            bind ctx i
              (emit ctx ~iop:(Lir.Call (Lir.Intr Lir.Crc32)) ~ity:Lir.I64
                 ~operands:[| u x; u y |] ())
        | Op.Longmulfold ->
            (* expands into i128 arithmetic (Sec. V: "more complex
               instruction sequences") *)
            let wa = emit ctx ~iop:Lir.Zext ~ity:Lir.I128 ~operands:[| u x |] () in
            let wb = emit ctx ~iop:Lir.Zext ~ity:Lir.I128 ~operands:[| u y |] () in
            let p = emit ctx ~iop:Lir.Mul ~ity:Lir.I128 ~operands:[| wa; wb |] () in
            let hi =
              emit ctx ~iop:Lir.Lshr ~ity:Lir.I128
                ~operands:[| p; Lir.Vconst128 (Qcomp_support.I128.of_int 64) |] ()
            in
            let lo64 = emit ctx ~iop:Lir.Trunc ~ity:Lir.I64 ~operands:[| p |] () in
            let hi64 = emit ctx ~iop:Lir.Trunc ~ity:Lir.I64 ~operands:[| hi |] () in
            bind ctx i (emit ctx ~iop:Lir.Xor ~ity:Lir.I64 ~operands:[| lo64; hi64 |] ())
        | Op.Atomicadd ->
            bind ctx i
              (emit ctx ~iop:Lir.Atomicrmw_add ~ity ~operands:[| u x; u y |] ())
        | Op.Call ->
            let args = Array.of_list (List.map u (Func.call_args src i)) in
            let c =
              emit ctx ~iop:(Lir.Call (Lir.Extern (Func.z src i))) ~ity
                ~operands:args ()
            in
            if ty <> Ty.Void then bind ctx i c
        | Op.Br ->
            ignore
              (emit ctx ~iop:Lir.Br ~ity:Lir.Void ~targets:[| ctx.lblocks.(x) |] ())
        | Op.Condbr ->
            ignore
              (emit ctx ~iop:Lir.Condbr ~ity:Lir.Void ~operands:[| u x |]
                 ~targets:[| ctx.lblocks.(y); ctx.lblocks.(z) |] ())
        | Op.Ret ->
            if x >= 0 then
              ignore (emit ctx ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| u x |] ())
            else ignore (emit ctx ~iop:Lir.Ret ~ity:Lir.Void ())
        | Op.Unreachable -> ignore (emit ctx ~iop:Lir.Unreachable ~ity:Lir.Void ())
        | Op.Fadd -> bind ctx i (emit ctx ~iop:Lir.Fadd ~ity ~operands:[| u x; u y |] ())
        | Op.Fsub -> bind ctx i (emit ctx ~iop:Lir.Fsub ~ity ~operands:[| u x; u y |] ())
        | Op.Fmul -> bind ctx i (emit ctx ~iop:Lir.Fmul ~ity ~operands:[| u x; u y |] ())
        | Op.Fdiv -> bind ctx i (emit ctx ~iop:Lir.Fdiv ~ity ~operands:[| u x; u y |] ())
        | Op.Sitofp -> bind ctx i (emit ctx ~iop:Lir.Sitofp ~ity ~operands:[| u x |] ())
        | Op.Fptosi -> bind ctx i (emit ctx ~iop:Lir.Fptosi ~ity ~operands:[| u x |] ()))
      (Func.block_insts src b);
    end_lblock.(b) <- ctx.cur
  done;
  (* pass 3: fill phi inputs. In struct mode a Pair-typed phi may receive a
     raw i128 input (a constant, or the custom multiply's join value): the
     wrap is inserted in the predecessor, before its terminator. *)
  let insert_before_term (blk : Lir.block) ~iop ~ity ~operands =
    let i =
      {
        Lir.iid = f.Lir.next_inst_id;
        iop;
        ity;
        operands;
        phi_blocks = [||];
        targets = [||];
        parent = Some blk;
        users = [];
        deleted = false;
      }
    in
    f.Lir.next_inst_id <- f.Lir.next_inst_id + 1;
    Array.iter (fun v -> Lir.add_user v i) operands;
    (* place before the terminator by rebuilding the vector *)
    let live = Qcomp_support.Vec.create ~dummy:Lir.dummy_inst () in
    let n = Qcomp_support.Vec.length blk.Lir.insts in
    for k = 0 to n - 2 do
      ignore (Qcomp_support.Vec.push live (Qcomp_support.Vec.get blk.Lir.insts k))
    done;
    ignore (Qcomp_support.Vec.push live i);
    if n > 0 then
      ignore (Qcomp_support.Vec.push live (Qcomp_support.Vec.get blk.Lir.insts (n - 1)));
    blk.Lir.insts <- live;
    Lir.Vinst i
  in
  List.iter
    (fun (i, (p : Lir.inst)) ->
      let inc = Func.phi_incoming ctx.src i in
      let operands =
        Array.of_list
          (List.map
             (fun (blk, v) ->
               let lv = ctx.values.(v) in
               if p.Lir.ity = Lir.Pair && Lir.value_ty lv <> Lir.Pair then
                 insert_before_term end_lblock.(blk) ~iop:Lir.Pairof
                   ~ity:Lir.Pair ~operands:[| lv |]
               else lv)
             inc)
      in
      let phi_blocks =
        Array.of_list (List.map (fun (blk, _) -> end_lblock.(blk)) inc)
      in
      p.Lir.operands <- operands;
      p.Lir.phi_blocks <- phi_blocks;
      Array.iter (fun v -> Lir.add_user v p) operands)
    !phis;
  f
