(** Umbra IR -> CIR translation (Sec. VI).

    Two passes per function: the first sets up metadata (CIR blocks, block
    parameters for phis, the value-mapping table), the second translates
    instructions. The mapping from Umbra IR values to CIR values goes
    through a hash table — the paper measures these lookups as a visible
    part of IRGen time, so we keep that structure deliberately.

    [getelementptr] becomes integer arithmetic (CIR has no pointers).
    Helper-function addresses are hard-wired as constants. The custom
    instructions of Table II ([crc32], overflow-trapping arithmetic,
    full-result multiply) are emitted only when the corresponding feature
    flag is set; otherwise the front-end falls back to helper calls or
    longer inline sequences, as Umbra did before adding them. *)

open Qcomp_ir

type features = {
  native_crc32 : bool;
  native_overflow : bool;
  native_mulfull : bool;
}

let all_features = { native_crc32 = true; native_overflow = true; native_mulfull = true }
let no_features = { native_crc32 = false; native_overflow = false; native_mulfull = false }

type ctx = {
  src : Func.t;
  dst : Cir.func;
  features : features;
  extern_addr : int -> int64;
  rt_addr : string -> int64;
  value_map : (int, int) Hashtbl.t;  (** Umbra value -> CIR value *)
  block_map : int array;  (** Umbra block -> CIR block *)
  mutable trap_block : int;  (** lazily created, -1 *)
  mutable cur : int;  (** current CIR block *)
}

let cir_ty (t : Ty.t) : Cir.ty =
  match t with
  | Ty.I1 | Ty.I8 -> Cir.I8
  | Ty.I16 -> Cir.I16
  | Ty.I32 -> Cir.I32
  | Ty.I64 | Ty.Ptr -> Cir.I64
  | Ty.I128 -> Cir.I128
  | Ty.F64 -> Cir.F64
  | Ty.Void -> Cir.I64

let lookup ctx v =
  match Hashtbl.find_opt ctx.value_map v with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "clif frontend: unmapped value %%%d" v)

let emit ctx ~op ?ty ?imm ?aux ?aux2 ?args () =
  Cir.append ctx.dst ctx.cur ~op ?ty ?imm ?aux ?aux2 ?args ~has_result:true ()

let emit_void ctx ~op ?ty ?imm ?aux ?aux2 ?args () =
  ignore
    (Cir.append ctx.dst ctx.cur ~op ?ty ?imm ?aux ?aux2 ?args ~has_result:false ())

let iconst ctx v = emit ctx ~op:Cir.Iconst ~ty:Cir.I64 ~imm:v ()

(** Call a helper whose address is hard-wired. [nres] is 0 or 1. *)
let call_helper ctx ~addr ~ret_ty ~nres args =
  let callee = iconst ctx addr in
  if nres = 0 then begin
    emit_void ctx ~op:Cir.Call_indirect ~aux:0 ~args:(callee :: args) ();
    -1
  end
  else emit ctx ~op:Cir.Call_indirect ~ty:ret_ty ~aux:1 ~args:(callee :: args) ()

(** The per-function trap block: calls the overflow trap. *)
let trap_block ctx =
  if ctx.trap_block < 0 then begin
    let b = Cir.new_block ctx.dst ~params:[||] in
    let saved = ctx.cur in
    ctx.cur <- b;
    ignore
      (call_helper ctx ~addr:(ctx.rt_addr "umbra_throwOverflow") ~ret_ty:Cir.I64
         ~nres:0 []);
    emit_void ctx ~op:Cir.Trap ~imm:1L ();
    ctx.cur <- saved;
    ctx.trap_block <- b
  end;
  ctx.trap_block

(** Branch to the trap block when [cond] (an i8 boolean) is true; continue
    in a fresh block. *)
let trap_if ctx cond =
  let tb = trap_block ctx in
  let cont = Cir.new_block ctx.dst ~params:[||] in
  emit_void ctx ~op:Cir.Brif ~aux:tb ~aux2:cont ~args:[ cond ] ();
  ctx.cur <- cont

let cond_code (c : Cir.cond) =
  match c with
  | Cir.Eq -> 0
  | Cir.Ne -> 1
  | Cir.Slt -> 2
  | Cir.Sle -> 3
  | Cir.Sgt -> 4
  | Cir.Sge -> 5
  | Cir.Ult -> 6
  | Cir.Ule -> 7
  | Cir.Ugt -> 8
  | Cir.Uge -> 9

let cond_of_code = function
  | 0 -> Cir.Eq
  | 1 -> Cir.Ne
  | 2 -> Cir.Slt
  | 3 -> Cir.Sle
  | 4 -> Cir.Sgt
  | 5 -> Cir.Sge
  | 6 -> Cir.Ult
  | 7 -> Cir.Ule
  | 8 -> Cir.Ugt
  | 9 -> Cir.Uge
  | _ -> invalid_arg "bad cond code"

let icmp ctx ~ty:_ cond a b =
  emit ctx ~op:Cir.Icmp ~ty:Cir.I8 ~aux:(cond_code cond) ~args:[ a; b ] ()

(* Inline signed-overflow check used when the custom trapping instructions
   are disabled (Table II baseline): ((a^r) & (b^r)) < 0. *)
let check_signed_overflow ctx ~sub ~ty a b r =
  (* add overflows iff (a^r)&(b^r)<0; sub iff (a^b)&(a^r)<0. For i128 the
     sign lives in the upper halves, so the check runs on those as i64. *)
  let a, b, r, ty =
    if ty = Cir.I128 then
      ( emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ a ] (),
        emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ b ] (),
        emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ r ] (),
        Cir.I64 )
    else (a, b, r, ty)
  in
  let t1 = emit ctx ~op:Cir.Bxor ~ty ~args:[ a; r ] () in
  let t2 =
    if sub then emit ctx ~op:Cir.Bxor ~ty ~args:[ a; b ] ()
    else emit ctx ~op:Cir.Bxor ~ty ~args:[ b; r ] ()
  in
  let t3 = emit ctx ~op:Cir.Band ~ty ~args:[ t1; t2 ] () in
  let z = emit ctx ~op:Cir.Iconst ~ty ~imm:0L () in
  let c = icmp ctx ~ty Cir.Slt t3 z in
  trap_if ctx c

(* sign-extension bounds check for narrow overflow-trapping arithmetic *)
let check_narrow ctx bits r64 =
  let maxv = Int64.sub (Int64.shift_left 1L (bits - 1)) 1L in
  let minv = Int64.neg (Int64.shift_left 1L (bits - 1)) in
  let mx = iconst ctx maxv in
  let mn = iconst ctx minv in
  let too_big = icmp ctx ~ty:Cir.I64 Cir.Sgt r64 mx in
  let too_small = icmp ctx ~ty:Cir.I64 Cir.Slt r64 mn in
  let bad = emit ctx ~op:Cir.Bor ~ty:Cir.I8 ~args:[ too_big; too_small ] () in
  trap_if ctx bad

(* k with [n = 1 lsl k], or -1 when [n] is no power of two *)
let log2 n =
  if n <= 0 || n land (n - 1) <> 0 then -1
  else
    let rec go k = if 1 lsl k = n then k else go (k + 1) in
    go 0

(* ------------------------------------------------------------------ *)

let translate ~features ~extern_addr ~rt_addr (src : Func.t) : Cir.func =
  let dst = Cir.create_func src.Func.name in
  dst.Cir.sig_params <- Array.map cir_ty src.Func.arg_tys;
  dst.Cir.sig_ret <-
    (match src.Func.ret with Ty.Void -> None | t -> Some (cir_ty t));
  let ctx =
    {
      src;
      dst;
      features;
      extern_addr;
      rt_addr;
      value_map = Hashtbl.create 64;
      block_map = Array.make (Func.num_blocks src) (-1);
      trap_block = -1;
      cur = 0;
    }
  in
  (* ---- pass 1: metadata — blocks, params, value table sizing ---- *)
  for b = 0 to Func.num_blocks src - 1 do
    let phis = ref [] in
    Qcomp_support.Vec.iter
      (fun i -> if Func.op src i = Op.Phi then phis := i :: !phis)
      (Func.block_insts src b);
    let phis = List.rev !phis in
    let params =
      if b = Func.entry_block then
        (* Cranelift: the entry block's parameters are the function args *)
        Array.map cir_ty src.Func.arg_tys
      else Array.of_list (List.map (fun p -> cir_ty (Func.ty src p)) phis)
    in
    let cb = Cir.new_block dst ~params in
    ctx.block_map.(b) <- cb;
    if b = Func.entry_block then
      Array.iteri
        (fun k _ -> Hashtbl.replace ctx.value_map k dst.Cir.block_params.(cb).(k))
        src.Func.arg_tys
    else
      List.iteri
        (fun k p -> Hashtbl.replace ctx.value_map p dst.Cir.block_params.(cb).(k))
        phis
  done;
  (* entry block with phis is impossible (it has no predecessors) *)
  (* ---- pass 2: translate instructions ---- *)
  let v i = lookup ctx i in
  let features = ctx.features in
  (* Branch to Umbra block [ub], passing its phi inputs along the edge from
     Umbra block [from]. *)
  let jump_args from ub =
    let args = ref [] in
    Qcomp_support.Vec.iter
      (fun i ->
        if Func.op src i = Op.Phi then
          List.iter
            (fun (pred, pv) -> if pred = from then args := v pv :: !args)
            (Func.phi_incoming src i))
      (Func.block_insts src ub);
    List.rev !args
  in
  for b = 0 to Func.num_blocks src - 1 do
    ctx.cur <- ctx.block_map.(b);
    Qcomp_support.Vec.iter
      (fun i ->
        let ty = Func.ty src i in
        let cty = cir_ty ty in
        let x = Func.x src i and y = Func.y src i and z = Func.z src i in
        let bind c = Hashtbl.replace ctx.value_map i c in
        match Func.op src i with
        | Op.Nop | Op.Arg | Op.Phi -> ()
        | Op.Param ->
            (* cranelift does not opt in to parameter holes; the serving
               layer hands it fully-baked whole plans only *)
            failwith "cranelift: Op.Param reached a non-parameterized back-end"
        | Op.Const -> bind (emit ctx ~op:Cir.Iconst ~ty:cty ~imm:(Func.imm src i) ())
        | Op.Const128 ->
            let hi, lo = Func.const128_value src i in
            let clo = iconst ctx lo in
            let chi = iconst ctx hi in
            bind (emit ctx ~op:Cir.Iconcat ~ty:Cir.I128 ~args:[ clo; chi ] ())
        | Op.Isnull | Op.Isnotnull ->
            let zero = iconst ctx 0L in
            let c = if Func.op src i = Op.Isnull then Cir.Eq else Cir.Ne in
            bind (icmp ctx ~ty:Cir.I64 c (v x) zero)
        | Op.Add -> bind (emit ctx ~op:Cir.Iadd ~ty:cty ~args:[ v x; v y ] ())
        | Op.Sub -> bind (emit ctx ~op:Cir.Isub ~ty:cty ~args:[ v x; v y ] ())
        | Op.Mul -> bind (emit ctx ~op:Cir.Imul ~ty:cty ~args:[ v x; v y ] ())
        | Op.Sdiv -> bind (emit ctx ~op:Cir.Sdiv ~ty:cty ~args:[ v x; v y ] ())
        | Op.Udiv -> bind (emit ctx ~op:Cir.Udiv ~ty:cty ~args:[ v x; v y ] ())
        | Op.Srem -> bind (emit ctx ~op:Cir.Srem ~ty:cty ~args:[ v x; v y ] ())
        | Op.Urem -> bind (emit ctx ~op:Cir.Urem ~ty:cty ~args:[ v x; v y ] ())
        | Op.And -> bind (emit ctx ~op:Cir.Band ~ty:cty ~args:[ v x; v y ] ())
        | Op.Or -> bind (emit ctx ~op:Cir.Bor ~ty:cty ~args:[ v x; v y ] ())
        | Op.Xor -> bind (emit ctx ~op:Cir.Bxor ~ty:cty ~args:[ v x; v y ] ())
        | Op.Shl -> bind (emit ctx ~op:Cir.Ishl ~ty:cty ~args:[ v x; v y ] ())
        | Op.Lshr -> bind (emit ctx ~op:Cir.Ushr ~ty:cty ~args:[ v x; v y ] ())
        | Op.Ashr -> bind (emit ctx ~op:Cir.Sshr ~ty:cty ~args:[ v x; v y ] ())
        | Op.Rotr -> bind (emit ctx ~op:Cir.Rotr ~ty:cty ~args:[ v x; v y ] ())
        | Op.Saddtrap | Op.Ssubtrap -> (
            let op_n =
              if Func.op src i = Op.Saddtrap then Cir.Sadd_trap else Cir.Ssub_trap
            in
            let op_p = if Func.op src i = Op.Saddtrap then Cir.Iadd else Cir.Isub in
            if features.native_overflow then
              bind (emit ctx ~op:op_n ~ty:cty ~args:[ v x; v y ] ())
            else
              match cty with
              | Cir.I64 | Cir.I128 ->
                  let r = emit ctx ~op:op_p ~ty:cty ~args:[ v x; v y ] () in
                  check_signed_overflow ctx
                    ~sub:(Func.op src i = Op.Ssubtrap)
                    ~ty:cty (v x) (v y) r;
                  bind r
              | _ ->
                  (* narrow: widen, compute, bounds-check, reduce *)
                  let xa = emit ctx ~op:Cir.Sextend ~ty:Cir.I64 ~args:[ v x ] () in
                  let ya = emit ctx ~op:Cir.Sextend ~ty:Cir.I64 ~args:[ v y ] () in
                  let r = emit ctx ~op:op_p ~ty:Cir.I64 ~args:[ xa; ya ] () in
                  check_narrow ctx (Cir.ty_bits cty) r;
                  bind (emit ctx ~op:Cir.Ireduce ~ty:cty ~args:[ r ] ()))
        | Op.Smultrap -> (
            match cty with
            | Cir.I128 ->
                (* run-time 64-bit fit check (Sec. VI-A1) *)
                let lo_x = emit ctx ~op:Cir.Isplit_lo ~ty:Cir.I64 ~args:[ v x ] () in
                let hi_x = emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ v x ] () in
                let lo_y = emit ctx ~op:Cir.Isplit_lo ~ty:Cir.I64 ~args:[ v y ] () in
                let hi_y = emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ v y ] () in
                let c63 = iconst ctx 63L in
                let sx = emit ctx ~op:Cir.Sshr ~ty:Cir.I64 ~args:[ lo_x; c63 ] () in
                let sy = emit ctx ~op:Cir.Sshr ~ty:Cir.I64 ~args:[ lo_y; c63 ] () in
                let fx = icmp ctx ~ty:Cir.I64 Cir.Eq sx hi_x in
                let fy = icmp ctx ~ty:Cir.I64 Cir.Eq sy hi_y in
                let both = emit ctx ~op:Cir.Band ~ty:Cir.I8 ~args:[ fx; fy ] () in
                let fast_b = Cir.new_block ctx.dst ~params:[||] in
                let slow_b = Cir.new_block ctx.dst ~params:[||] in
                let join = Cir.new_block ctx.dst ~params:[| Cir.I128 |] in
                emit_void ctx ~op:Cir.Brif ~aux:fast_b ~aux2:slow_b ~args:[ both ] ();
                (* fast: full signed 64x64 product *)
                ctx.cur <- fast_b;
                let prod =
                  if features.native_mulfull then
                    emit ctx ~op:Cir.Mul_full ~ty:Cir.I128 ~aux:1 ~args:[ lo_x; lo_y ] ()
                  else begin
                    (* two separate multiplies: the selector cannot merge
                       them (the cost Table II's mul-full row measures) *)
                    let lo = emit ctx ~op:Cir.Imul ~ty:Cir.I64 ~args:[ lo_x; lo_y ] () in
                    let hi = emit ctx ~op:Cir.Smulhi ~ty:Cir.I64 ~args:[ lo_x; lo_y ] () in
                    emit ctx ~op:Cir.Iconcat ~ty:Cir.I128 ~args:[ lo; hi ] ()
                  end
                in
                emit_void ctx ~op:Cir.Jump ~aux:join ~args:[ prod ] ();
                (* slow: hand-optimized helper *)
                ctx.cur <- slow_b;
                let r =
                  call_helper ctx ~addr:(ctx.rt_addr "umbra_i128MulFull")
                    ~ret_ty:Cir.I128 ~nres:1 [ v x; v y ]
                in
                emit_void ctx ~op:Cir.Jump ~aux:join ~args:[ r ] ();
                ctx.cur <- join;
                bind ctx.dst.Cir.block_params.(join).(0)
            | Cir.I64 ->
                if features.native_overflow then
                  bind (emit ctx ~op:Cir.Smul_trap ~ty:cty ~args:[ v x; v y ] ())
                else begin
                  (* low product + high product; overflow iff hi <> lo>>63 *)
                  let lo = emit ctx ~op:Cir.Imul ~ty:Cir.I64 ~args:[ v x; v y ] () in
                  let hi = emit ctx ~op:Cir.Smulhi ~ty:Cir.I64 ~args:[ v x; v y ] () in
                  let c63 = iconst ctx 63L in
                  let sign = emit ctx ~op:Cir.Sshr ~ty:Cir.I64 ~args:[ lo; c63 ] () in
                  let bad = icmp ctx ~ty:Cir.I64 Cir.Ne hi sign in
                  trap_if ctx bad;
                  bind lo
                end
            | _ ->
                let xa = emit ctx ~op:Cir.Sextend ~ty:Cir.I64 ~args:[ v x ] () in
                let ya = emit ctx ~op:Cir.Sextend ~ty:Cir.I64 ~args:[ v y ] () in
                let r = emit ctx ~op:Cir.Imul ~ty:Cir.I64 ~args:[ xa; ya ] () in
                check_narrow ctx (Cir.ty_bits cty) r;
                bind (emit ctx ~op:Cir.Ireduce ~ty:cty ~args:[ r ] ()))
        | Op.Cmp ->
            let pred = Op.cmp_of_int (Func.n src i) in
            bind (icmp ctx ~ty:(cir_ty (Func.ty src x)) (Cir.cond_of_cmp pred) (v x) (v y))
        | Op.Fcmp ->
            let pred = Op.cmp_of_int (Func.n src i) in
            bind
              (emit ctx ~op:Cir.Fcmp ~ty:Cir.I8
                 ~aux:(cond_code (Cir.cond_of_cmp pred))
                 ~args:[ v x; v y ] ())
        | Op.Zext -> bind (emit ctx ~op:Cir.Uextend ~ty:cty ~args:[ v x ] ())
        | Op.Sext -> bind (emit ctx ~op:Cir.Sextend ~ty:cty ~args:[ v x ] ())
        | Op.Trunc -> bind (emit ctx ~op:Cir.Ireduce ~ty:cty ~args:[ v x ] ())
        | Op.Select ->
            bind (emit ctx ~op:Cir.Select ~ty:cty ~args:[ v x; v y; v z ] ())
        | Op.Load ->
            let sext = Func.ty src i <> Ty.I1 in
            let aux = log2 (Ty.size_bytes ty) lor if sext then 8 else 0 in
            bind (emit ctx ~op:Cir.Load ~ty:cty ~imm:(Func.imm src i) ~aux ~args:[ v x ] ())
        | Op.Store ->
            let vty = Func.ty src x in
            let aux = log2 (Ty.size_bytes vty) in
            emit_void ctx ~op:Cir.Store ~imm:(Func.imm src i) ~aux ~args:[ v x; v y ] ()
        | Op.Gep ->
            (* integer arithmetic (CIR has no pointers): a power-of-two
               scale is a shift, which the lowering folds into the load's
               addressing mode together with the adds *)
            let base = v x in
            let with_index =
              if y >= 0 then begin
                let scale = Func.n src i in
                let scaled =
                  match log2 scale with
                  | 0 -> v y
                  | -1 -> emit ctx ~op:Cir.Imul ~ty:Cir.I64 ~args:[ v y; iconst ctx (Int64.of_int scale) ] ()
                  | k -> emit ctx ~op:Cir.Ishl ~ty:Cir.I64 ~args:[ v y; iconst ctx (Int64.of_int k) ] ()
                in
                emit ctx ~op:Cir.Iadd ~ty:Cir.I64 ~args:[ base; scaled ] ()
              end
              else base
            in
            if Int64.equal (Func.imm src i) 0L then bind with_index
            else begin
              let off = iconst ctx (Func.imm src i) in
              bind (emit ctx ~op:Cir.Iadd ~ty:Cir.I64 ~args:[ with_index; off ] ())
            end
        | Op.Crc32 ->
            if features.native_crc32 then
              bind (emit ctx ~op:Cir.Crc32c ~ty:Cir.I64 ~args:[ v x; v y ] ())
            else
              bind
                (call_helper ctx ~addr:(ctx.rt_addr "umbra_crc32") ~ret_ty:Cir.I64
                   ~nres:1 [ v x; v y ])
        | Op.Longmulfold ->
            if features.native_mulfull then begin
              (* the hash folds an *unsigned* full product *)
              let p = emit ctx ~op:Cir.Mul_full ~ty:Cir.I128 ~aux:0 ~args:[ v x; v y ] () in
              let lo = emit ctx ~op:Cir.Isplit_lo ~ty:Cir.I64 ~args:[ p ] () in
              let hi = emit ctx ~op:Cir.Isplit_hi ~ty:Cir.I64 ~args:[ p ] () in
              bind (emit ctx ~op:Cir.Bxor ~ty:Cir.I64 ~args:[ lo; hi ] ())
            end
            else begin
              let lo = emit ctx ~op:Cir.Imul ~ty:Cir.I64 ~args:[ v x; v y ] () in
              let hi = emit ctx ~op:Cir.Umulhi ~ty:Cir.I64 ~args:[ v x; v y ] () in
              bind (emit ctx ~op:Cir.Bxor ~ty:Cir.I64 ~args:[ lo; hi ] ())
            end
        | Op.Atomicadd ->
            (* single-threaded engine: load/add/store *)
            let aux = log2 (Ty.size_bytes ty) lor 8 in
            let old = emit ctx ~op:Cir.Load ~ty:cty ~imm:0L ~aux ~args:[ v x ] () in
            let sum = emit ctx ~op:Cir.Iadd ~ty:cty ~args:[ old; v y ] () in
            emit_void ctx ~op:Cir.Store ~imm:0L ~aux:(log2 (Ty.size_bytes ty))
              ~args:[ sum; v x ] ();
            bind old
        | Op.Call ->
            let addr = extern_addr (Func.z src i) in
            let args = List.map v (Func.call_args src i) in
            if ty = Ty.Void then
              ignore (call_helper ctx ~addr ~ret_ty:Cir.I64 ~nres:0 args)
            else bind (call_helper ctx ~addr ~ret_ty:cty ~nres:1 args)
        | Op.Br ->
            emit_void ctx ~op:Cir.Jump ~aux:ctx.block_map.(x)
              ~args:(jump_args b x) ()
        | Op.Condbr ->
            (* CIR brif carries no block arguments here: edges that need
               them go through inserted edge blocks *)
            let target ub =
              let args = jump_args b ub in
              if args = [] then ctx.block_map.(ub)
              else begin
                let eb = Cir.new_block ctx.dst ~params:[||] in
                let saved = ctx.cur in
                ctx.cur <- eb;
                emit_void ctx ~op:Cir.Jump ~aux:ctx.block_map.(ub) ~args ();
                ctx.cur <- saved;
                eb
              end
            in
            let tb = target y in
            let eb = target z in
            emit_void ctx ~op:Cir.Brif ~aux:tb ~aux2:eb ~args:[ v x ] ()
        | Op.Ret ->
            if x >= 0 then emit_void ctx ~op:Cir.Return ~args:[ v x ] ()
            else emit_void ctx ~op:Cir.Return ()
        | Op.Unreachable -> emit_void ctx ~op:Cir.Trap ~imm:0L ()
        | Op.Fadd -> bind (emit ctx ~op:Cir.Fadd ~ty:Cir.F64 ~args:[ v x; v y ] ())
        | Op.Fsub -> bind (emit ctx ~op:Cir.Fsub ~ty:Cir.F64 ~args:[ v x; v y ] ())
        | Op.Fmul -> bind (emit ctx ~op:Cir.Fmul ~ty:Cir.F64 ~args:[ v x; v y ] ())
        | Op.Fdiv -> bind (emit ctx ~op:Cir.Fdiv ~ty:Cir.F64 ~args:[ v x; v y ] ())
        | Op.Sitofp ->
            (* conversions have different semantics in CIR: helper call *)
            bind
              (call_helper ctx ~addr:(ctx.rt_addr "umbra_i2f") ~ret_ty:Cir.F64
                 ~nres:1 [ v x ])
        | Op.Fptosi ->
            bind
              (call_helper ctx ~addr:(ctx.rt_addr "umbra_f2i") ~ret_ty:Cir.I64
                 ~nres:1 [ v x ]))
      (Func.block_insts src b)
  done;
  dst
