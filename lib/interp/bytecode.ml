(** Register-based bytecode and its translation from Umbra IR.

    Each SSA value gets one bytecode register (two 64-bit lanes so 128-bit
    values fit), plus one scratch register past the SSA ids. Runtime-call
    targets are resolved at translation time, like Umbra hard-wiring
    addresses.

    The interpreter pays a dispatch per op, so the translator emits an op
    only where there is work to do:
    - Constants, 128-bit constants and bound parameter holes go into the
      function's constant pool, which {!Interp.run} writes into the
      register file on entry: the body holds no constant op.
    - A compare ([Cmp], [Isnull], [Isnotnull]) read only by its own block's
      [Condbr] fuses with it into one [Cmpbr]; a [Gep] read only by a [Load]
      in its own block fuses with it into one [Loadx]. A fused op costs what
      its parts cost, less one dispatch.
    - Phis become copies on their incoming edges, sequentialized: one [Move]
      per phi whose value changes, plus one through the scratch register
      per copy cycle. An edge with copies branches to a stub that holds
      them; an edge without branches straight to its block.
    - A branch to the next block in the layout falls through, a branch
      to a [Jmp] goes where the [Jmp] goes, and a [Jmp] to a [Cmpbr],
      [Condbr], [Ret] or [Jmp] becomes a copy of that op, so a loop runs
      its header test at the latch.

    Translation is linear: {!Func.count_uses}, one pass that maps
    instructions to blocks, one that emits, one that patches targets. *)

open Qcomp_support
open Qcomp_ir

type inst =
  | Move of int * int  (** dst, src (copies both lanes) *)
  | Bin of Op.t * Ty.t * int * int * int  (** op, ty, dst, a, b *)
  | Cmp of Op.cmp * Ty.t * int * int * int
      (** pred, operand ty, dst, a, b (-1: zero) *)
  | Un of Op.t * Ty.t * Ty.t * int * int  (** op, dst ty, src ty, dst, src *)
  | Select of Ty.t * int * int * int * int  (** ty, dst, cond, a, b *)
  | Load of Ty.t * int * int * int  (** ty, dst, addr, offset *)
  | Loadx of Ty.t * int * int * int * int * int
      (** ty, dst, base, index (-1), scale, offset: [Gep] + [Load] *)
  | Store of Ty.t * int * int * int  (** value ty, src, addr, offset *)
  | Gep of int * int * int * int * int  (** dst, base, index(-1), scale, off *)
  | Call of { dst : int; ret : Ty.t; addr : int64; args : (int * Ty.t) array }
  | Jmp of int
  | Condbr of int * int * int  (** cond, then, else *)
  | Cmpbr of Op.cmp * Ty.t * int * int * int * int
      (** pred, operand ty, a, b (-1: zero), then, else: [Cmp] + [Condbr] *)
  | Ret of int
  | Unreachable

type fn = {
  fn_name : string;
  code : inst array;
  consts : (int * int64 * int64) array;
      (** constant pool: register, low lane, high lane *)
  num_regs : int;
  n_args : int;
}

(* A branch target names block [b] as [lnot b] until the block's position
   is known; positions are non-negative. *)
let block_target b = lnot b

(* The compare [c] reads: predicate, operand type and operands. *)
let compare_of f c =
  let x = Func.x f c in
  match Func.op f c with
  | Op.Cmp -> (Op.cmp_of_int (Func.n f c), Func.ty f x, x, Func.y f c)
  | Op.Fcmp -> (Op.cmp_of_int (Func.n f c), Ty.F64, x, Func.y f c)
  | Op.Isnull -> (Op.Eq, Func.ty f x, x, -1)
  | Op.Isnotnull -> (Op.Ne, Func.ty f x, x, -1)
  | _ -> invalid_arg "Bytecode.compare_of"

(* [params] holds one resolved 64-bit word per parameter hole (the raw
   value for ints, the SSO struct address for strings); the interpreter
   has no patchable text, so holes are bound as pool constants per bound
   translation instead.

   The instruction columns and block arrays are read directly: this
   library is built without cross-module inlining, so a [Func.op] or
   [Vec.get] per instruction would be a call each. *)
let translate ?(params = [||]) ~(extern_addr : int -> int64) (f : Func.t) : fn =
  let n = Func.num_insts f and nb = Func.num_blocks f in
  let ops = f.Func.ops and tys = f.Func.tys and xs = f.Func.xs and ys = f.Func.ys in
  let blocks = Vec.unsafe_data f.Func.blocks in
  let scratch = n in
  (* [state.(v + 1)]: the use count of [v]; for a GEP read once, -1 once
     it is fused into its load *)
  let state = Array.make (n + 1) 0 in
  let has_phi = Func.count_uses f state in
  (* block of every instruction, phis of every block (phis.(phi_start.(b))
     up to phis.(phi_start.(b + 1))), and the GEPs to fuse into their load *)
  let blk_of = Array.make n (-1) in
  let phis = Vec.create ~dummy:(-1) () and phi_start = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    phi_start.(b) <- Vec.length phis;
    let insts = blocks.(b).Func.insts in
    let data = Vec.unsafe_data insts in
    for k = 0 to Vec.length insts - 1 do
      let i = data.(k) in
      blk_of.(i) <- b;
      match ops.(i) with
      | Op.Phi -> ignore (Vec.push phis i)
      | Op.Load ->
          let g = xs.(i) in
          if ops.(g) == Op.Gep && blk_of.(g) = b && state.(g + 1) = 1 then
            state.(g + 1) <- -1
      | _ -> ()
    done
  done;
  phi_start.(nb) <- Vec.length phis;
  let fused_gep g = state.(g + 1) < 0 in
  let code = Vec.create ~dummy:Unreachable () in
  let consts = Vec.create ~dummy:(0, 0L, 0L) () in
  let block_pos = Array.make nb (-1) in
  let emit i = ignore (Vec.push code i) in
  (* Parallel-copy sequentialization (Boissinot et al., "Revisiting
     Out-of-SSA Translation", Algorithm 1): [src.(d)] is the register phi
     [d] copies from, [loc.(s)] where the value first held in [s] lives
     now. Both are -1 outside [copies]. *)
  let src = if has_phi then Array.make (n + 1) (-1) else [||] in
  let loc = if has_phi then Array.make (n + 1) (-1) else [||] in
  let todo = Vec.create ~dummy:(-1) () and ready = Vec.create ~dummy:(-1) () in
  (* Emit the copies entering [target] from [pred]; true if there were any. *)
  let copies pred target =
    for k = phi_start.(target) to phi_start.(target + 1) - 1 do
      let d = Vec.get phis k in
      let s = Func.phi_incoming_from f d pred in
      if s >= 0 && s <> d then begin
        loc.(s) <- s;
        src.(d) <- s;
        ignore (Vec.push todo d)
      end
    done;
    let any = not (Vec.is_empty todo) in
    if any then begin
      let dsts = Vec.to_array todo in
      (* a destination nobody reads can be written at once *)
      Array.iter (fun d -> if loc.(d) < 0 then ignore (Vec.push ready d)) dsts;
      while not (Vec.is_empty todo) do
        while not (Vec.is_empty ready) do
          let d = Vec.pop ready in
          let s = src.(d) in
          let c = loc.(s) in
          emit (Move (d, c));
          loc.(s) <- d;
          if s = c && src.(s) >= 0 then ignore (Vec.push ready s)
        done;
        let d = Vec.pop todo in
        if d <> loc.(src.(d)) then begin
          (* only a cycle is left: park [d]'s value in the scratch *)
          emit (Move (scratch, d));
          loc.(d) <- scratch;
          ignore (Vec.push ready d)
        end
      done;
      Array.iter
        (fun d ->
          loc.(src.(d)) <- -1;
          loc.(d) <- -1;
          src.(d) <- -1)
        dsts
    end;
    any
  in
  for b = 0 to nb - 1 do
    block_pos.(b) <- Vec.length code;
    let insts = blocks.(b).Func.insts in
    let data = Vec.unsafe_data insts in
    let last = Vec.length insts - 1 in
    (* the compare this block's Condbr fuses with, or -1 *)
    let fused_cmp =
      if last < 0 then -1
      else
        let t = data.(last) in
        if ops.(t) != Op.Condbr then -1
        else
          let c = xs.(t) in
          match ops.(c) with
          | (Op.Cmp | Op.Isnull | Op.Isnotnull) when blk_of.(c) = b && state.(c + 1) = 1 -> c
          | _ -> -1
    in
    for k = 0 to last do
      let i = data.(k) in
      let x = xs.(i) and y = ys.(i) in
      match ops.(i) with
      | Op.Nop | Op.Arg | Op.Phi -> ()
      | Op.Const ->
          let v = Func.imm f i in
          ignore (Vec.push consts (i, v, Int64.shift_right v 63))
      | Op.Const128 ->
          let hi, lo = Func.const128_value f i in
          ignore (Vec.push consts (i, lo, hi))
      | Op.Param ->
          let idx = Int64.to_int (Func.imm f i) in
          if idx < 0 || idx >= Array.length params then
            invalid_arg
              (Printf.sprintf
                 "Bytecode.translate: unbound parameter hole %d in %s" idx
                 f.Func.name);
          let v = params.(idx) in
          ignore (Vec.push consts (i, v, Int64.shift_right v 63))
      | Op.Cmp | Op.Isnull | Op.Isnotnull | Op.Fcmp ->
          if i <> fused_cmp then begin
            let pred, cty, l, r = compare_of f i in
            emit (Cmp (pred, cty, i, l, r))
          end
      | ( Op.Add | Op.Sub | Op.Mul | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem
        | Op.Saddtrap | Op.Ssubtrap | Op.Smultrap | Op.And | Op.Or | Op.Xor
        | Op.Shl | Op.Lshr | Op.Ashr | Op.Rotr | Op.Crc32 | Op.Longmulfold
        | Op.Fadd | Op.Fsub | Op.Fmul | Op.Fdiv ) as op ->
          emit (Bin (op, tys.(i), i, x, y))
      | (Op.Zext | Op.Sext | Op.Trunc | Op.Sitofp | Op.Fptosi) as op ->
          emit (Un (op, tys.(i), tys.(x), i, x))
      | Op.Select -> emit (Select (tys.(i), i, x, y, Func.z f i))
      | Op.Load ->
          let off = Int64.to_int (Func.imm f i) in
          if fused_gep x then
            emit
              (Loadx
                 (tys.(i), i, xs.(x), ys.(x), Func.n f x, Int64.to_int (Func.imm f x) + off))
          else emit (Load (tys.(i), i, x, off))
      | Op.Store -> emit (Store (tys.(x), x, y, Int64.to_int (Func.imm f i)))
      | Op.Gep ->
          if not (fused_gep i) then
            emit (Gep (i, x, y, Func.n f i, Int64.to_int (Func.imm f i)))
      | Op.Atomicadd ->
          (* single-threaded engine: plain read-modify-write *)
          let ty = tys.(i) in
          emit (Load (ty, i, x, 0));
          emit (Bin (Op.Add, ty, scratch, i, y));
          emit (Store (ty, scratch, x, 0))
      | Op.Call ->
          let args = Array.of_list (Func.call_args f i) in
          emit
            (Call
               {
                 dst = i;
                 ret = tys.(i);
                 addr = extern_addr (Func.z f i);
                 args = Array.map (fun a -> (a, tys.(a))) args;
               })
      | Op.Br ->
          if has_phi then ignore (copies b x);
          if x <> b + 1 then emit (Jmp (block_target x))
      | Op.Condbr ->
          (* the branch goes first; an edge with copies then gets a stub
             after it, the last of which may fall through *)
          let z = Func.z f i in
          let at = Vec.length code in
          emit Unreachable;
          let then_stub = Vec.length code in
          let then_copies = has_phi && copies b y in
          let else_stub = Vec.length code + if then_copies then 1 else 0 in
          if then_copies then emit (Jmp (block_target y));
          let else_copies = has_phi && copies b z in
          if then_copies && (not else_copies) && y = b + 1 then
            (* the then stub is last: drop its jump *)
            Vec.truncate code (Vec.length code - 1);
          if else_copies && z <> b + 1 then emit (Jmp (block_target z));
          let t = if then_copies then then_stub else block_target y
          and e = if else_copies then else_stub else block_target z in
          Vec.set code at
            (if x = fused_cmp then
               let pred, cty, l, r = compare_of f x in
               Cmpbr (pred, cty, l, r, t, e)
             else Condbr (x, t, e))
      | Op.Ret -> emit (Ret x)
      | Op.Unreachable -> emit Unreachable
    done
  done;
  let code = Vec.to_array code in
  (* Patch block targets and thread jumps: a branch skips the jumps it
     lands on, and a Jmp takes the place of the branch, return or jump it
     lands on. A chain is followed a few jumps deep at most, so that a
     jump cycle ends. *)
  let rec settle t hops =
    let t = if t < 0 then block_pos.(lnot t) else t in
    match code.(t) with Jmp t' when hops > 0 -> settle t' (hops - 1) | _ -> t
  in
  let retarget = function
    | Jmp t -> Jmp (settle t 4)
    | Condbr (c, t, e) -> Condbr (c, settle t 4, settle e 4)
    | Cmpbr (p, ty, a, b, t, e) -> Cmpbr (p, ty, a, b, settle t 4, settle e 4)
    | i -> i
  in
  for k = 0 to Array.length code - 1 do
    match code.(k) with
    | Jmp t -> (
        let t = settle t 4 in
        match code.(t) with
        | (Cmpbr _ | Condbr _ | Ret _ | Jmp _) as i -> code.(k) <- retarget i
        | _ -> code.(k) <- Jmp t)
    | (Condbr _ | Cmpbr _) as i -> code.(k) <- retarget i
    | _ -> ()
  done;
  {
    fn_name = f.Func.name;
    code;
    consts = Vec.to_array consts;
    num_regs = n + 1;
    n_args = Func.n_args f;
  }

(* ---------------- printing ---------------- *)

let pp_opnd ppf r =
  if r < 0 then Format.pp_print_string ppf "0" else Format.fprintf ppf "r%d" r

let pp_inst ppf i =
  let ty = Ty.to_string and p = Format.fprintf in
  match i with
  | Move (d, s) -> p ppf "move r%d, r%d" d s
  | Bin (op, t, d, a, b) -> p ppf "%s.%s r%d, r%d, r%d" (Op.name op) (ty t) d a b
  | Cmp (c, t, d, a, b) ->
      p ppf "cmp.%s %s r%d, r%d, %a" (ty t) (Op.cmp_name c) d a pp_opnd b
  | Un (op, dt, st, d, s) -> p ppf "%s.%s.%s r%d, r%d" (Op.name op) (ty dt) (ty st) d s
  | Select (t, d, c, a, b) -> p ppf "select.%s r%d, r%d ? r%d : r%d" (ty t) d c a b
  | Load (t, d, a, off) -> p ppf "load.%s r%d, [r%d + %d]" (ty t) d a off
  | Loadx (t, d, base, idx, scale, off) ->
      if idx < 0 then p ppf "loadx.%s r%d, [r%d + %d]" (ty t) d base off
      else p ppf "loadx.%s r%d, [r%d + r%d*%d + %d]" (ty t) d base idx scale off
  | Store (t, s, a, off) -> p ppf "store.%s [r%d + %d], r%d" (ty t) a off s
  | Gep (d, base, idx, scale, off) ->
      if idx < 0 then p ppf "gep r%d, r%d + %d" d base off
      else p ppf "gep r%d, r%d + r%d*%d + %d" d base idx scale off
  | Call { dst; ret; addr; args } ->
      p ppf "call.%s r%d, 0x%Lx(%s)" (ty ret) dst addr
        (String.concat ", "
           (Array.to_list (Array.map (fun (a, _) -> Printf.sprintf "r%d" a) args)))
  | Jmp t -> p ppf "jmp %d" t
  | Condbr (c, t, e) -> p ppf "condbr r%d ? %d : %d" c t e
  | Cmpbr (c, ty', a, b, t, e) ->
      p ppf "cmpbr.%s %s r%d, %a ? %d : %d" (ty ty') (Op.cmp_name c) a pp_opnd b t e
  | Ret r -> if r < 0 then p ppf "ret" else p ppf "ret r%d" r
  | Unreachable -> p ppf "unreachable"

(** One line per pool constant ([pool  rN = lo[:hi]]), then one per op
    ([pc  op]). *)
let pp ppf fn =
  Array.iter
    (fun (r, lo, hi) ->
      if Int64.equal hi (Int64.shift_right lo 63) then
        Format.fprintf ppf "  pool    r%d = %Ld@\n" r lo
      else Format.fprintf ppf "  pool    r%d = 0x%016Lx:%016Lx@\n" r hi lo)
    fn.consts;
  Array.iteri (fun pc i -> Format.fprintf ppf "  %6d  %a@\n" pc pp_inst i) fn.code
