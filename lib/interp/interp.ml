(** The interpreter back-end: executes register bytecode directly.

    Compilation is a cheap linear translation (the paper's Table III lists
    0.03 s for all of TPC-DS); execution pays an explicit dispatch cost
    per bytecode operation on top of the operation's machine cost, which
    models interpretation overhead in the emulator's cycle budget. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm
open Qcomp_runtime

(* Cycles charged per bytecode operation for decode + dispatch. Umbra's
   interpreter runs roughly 3x slower than DirectEmit-generated code on
   TPC-DS (Table III); with the emulator's cost model that calibrated to
   about ten cycles of overhead per operation. DirectEmit's code has since
   got faster: with one op per IR instruction the interpreter ran 5.83x
   DirectEmit over TPC-H sf 1, and with the translator spending a dispatch
   only on ops that do work ({!Bytecode}) it runs 3.50x. *)
let dispatch_cost = 10

exception Interp_trap of string

(* Canonical representation: narrow integers are sign-extended in the low
   lane; i128 uses both lanes. *)

let sext_to ty (v : int64) =
  match ty with
  | Ty.I1 -> Int64.logand v 1L
  | Ty.I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | Ty.I16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | Ty.I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | _ -> v

let zext_of ty (v : int64) =
  match ty with
  | Ty.I1 -> Int64.logand v 1L
  | Ty.I8 -> Int64.logand v 0xFFL
  | Ty.I16 -> Int64.logand v 0xFFFFL
  | Ty.I32 -> Int64.logand v 0xFFFFFFFFL
  | _ -> v

(* A pool constant costs what the constant op it replaces did, without
   the dispatch. *)
let const_cost = 1

(* A fused op costs what its parts cost. *)
let op_cost (i : Bytecode.inst) =
  match i with
  | Bytecode.Move _ -> 1
  | Bytecode.Bin (op, ty, _, _, _) -> (
      let wide = if ty = Ty.I128 then 2 else 0 in
      match op with
      | Op.Mul | Op.Smultrap -> 3 + wide
      | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem -> 20 + wide
      | Op.Fdiv -> 15
      | _ -> 1 + wide)
  | Bytecode.Cmp _ -> 1
  | Bytecode.Un _ -> 1
  | Bytecode.Select _ -> 1
  | Bytecode.Load _ -> 2
  | Bytecode.Loadx _ -> 1 + 2 (* Gep + Load *)
  | Bytecode.Store _ -> 2
  | Bytecode.Gep _ -> 1
  | Bytecode.Call _ -> 6
  | Bytecode.Jmp _ -> 1
  | Bytecode.Condbr _ -> 1
  | Bytecode.Cmpbr _ -> 1 + 1 (* Cmp + Condbr *)
  | Bytecode.Ret _ -> 1
  | Bytecode.Unreachable -> 0

let run (emu : Emu.t) (fn : Bytecode.fn) (args : int64 array) : int64 * int64 =
  let mem = Emu.memory emu in
  let lo = Array.make fn.Bytecode.num_regs 0L in
  let hi = Array.make fn.Bytecode.num_regs 0L in
  Array.iteri (fun i v -> lo.(i) <- v) args;
  (* the constant pool: one dispatched op that writes every constant *)
  let consts = fn.Bytecode.consts in
  Emu.charge emu (dispatch_cost + (const_cost * Array.length consts));
  Array.iter
    (fun (r, l, h) ->
      lo.(r) <- l;
      hi.(r) <- h)
    consts;
  let get128 r = I128.make ~hi:hi.(r) ~lo:lo.(r) in
  let set128 r (v : I128.t) =
    lo.(r) <- I128.to_int64 v;
    hi.(r) <- I128.to_int64 (I128.shift_right_logical v 64)
  in
  (* [b] < 0 compares against zero *)
  let holds pred ty a b =
    let sc, uc =
      if ty = Ty.I128 then
        let x = get128 a in
        let y = if b < 0 then I128.zero else get128 b in
        (I128.compare x y, I128.compare_unsigned x y)
      else if ty = Ty.F64 then begin
        let x = Int64.float_of_bits lo.(a) in
        let y = if b < 0 then 0.0 else Int64.float_of_bits lo.(b) in
        let c = compare x y in
        (c, c)
      end
      else
        let x = lo.(a) and y = if b < 0 then 0L else lo.(b) in
        (Int64.compare x y, Int64.unsigned_compare (zext_of ty x) (zext_of ty y))
    in
    Op.cmp_eval pred ~signed_cmp:sc ~unsigned_cmp:uc
  in
  let load ty d addr =
    if ty = Ty.I128 then begin
      lo.(d) <- Memory.load64 mem addr;
      hi.(d) <- Memory.load64 mem (addr + 8)
    end
    else begin
      let size = max 1 (Ty.size_bytes ty) in
      lo.(d) <- Memory.load mem ~addr ~size ~sext:true;
      hi.(d) <- Int64.shift_right lo.(d) 63
    end
  in
  let code = fn.Bytecode.code in
  let pc = ref 0 in
  let result = ref (0L, 0L) in
  let running = ref true in
  while !running do
    let inst = code.(!pc) in
    Emu.charge emu (dispatch_cost + op_cost inst);
    incr pc;
    match inst with
    | Bytecode.Move (d, s) ->
        lo.(d) <- lo.(s);
        hi.(d) <- hi.(s)
    | Bytecode.Bin (op, ty, d, a, b) -> (
        if ty = Ty.I128 then begin
          let x = get128 a and y = get128 b in
          let r =
            match op with
            | Op.Add -> I128.add x y
            | Op.Sub -> I128.sub x y
            | Op.Mul -> I128.mul x y
            | Op.Saddtrap ->
                if I128.add_overflows x y then Rt_error.overflow ();
                I128.add x y
            | Op.Ssubtrap ->
                if I128.sub_overflows x y then Rt_error.overflow ();
                I128.sub x y
            | Op.Smultrap ->
                if I128.mul_overflows x y then Rt_error.overflow ();
                I128.mul x y
            | Op.Sdiv ->
                if I128.equal y I128.zero then Rt_error.division_by_zero ();
                I128.div x y
            | Op.Srem ->
                if I128.equal y I128.zero then Rt_error.division_by_zero ();
                I128.rem x y
            | Op.And -> I128.logand x y
            | Op.Or -> I128.logor x y
            | Op.Xor -> I128.logxor x y
            | Op.Shl -> I128.shift_left x (Int64.to_int lo.(b) land 127)
            | Op.Lshr -> I128.shift_right_logical x (Int64.to_int lo.(b) land 127)
            | Op.Ashr -> I128.shift_right x (Int64.to_int lo.(b) land 127)
            | op -> raise (Interp_trap ("bad i128 op " ^ Op.name op))
          in
          set128 d r
        end
        else
          let x = lo.(a) and y = lo.(b) in
          let canon v = sext_to ty v in
          let r =
            match op with
            | Op.Add -> canon (Int64.add x y)
            | Op.Sub -> canon (Int64.sub x y)
            | Op.Mul -> canon (Int64.mul x y)
            | Op.Saddtrap ->
                let r = Int64.add x y in
                let c = canon r in
                if ty = Ty.I64 then begin
                  if
                    Int64.compare
                      (Int64.logand (Int64.logxor x (Int64.lognot y)) (Int64.logxor x r))
                      0L
                    < 0
                  then Rt_error.overflow ();
                  r
                end
                else begin
                  if not (Int64.equal c r) then Rt_error.overflow ();
                  c
                end
            | Op.Ssubtrap ->
                let r = Int64.sub x y in
                let c = canon r in
                if ty = Ty.I64 then begin
                  if
                    Int64.compare (Int64.logand (Int64.logxor x y) (Int64.logxor x r)) 0L < 0
                  then Rt_error.overflow ();
                  r
                end
                else begin
                  if not (Int64.equal c r) then Rt_error.overflow ();
                  c
                end
            | Op.Smultrap ->
                if ty = Ty.I64 then begin
                  let wide = I128.smul64_wide x y in
                  let r = Int64.mul x y in
                  let h = I128.to_int64 (I128.shift_right wide 64) in
                  if not (Int64.equal h (Int64.shift_right r 63)) then
                    Rt_error.overflow ();
                  r
                end
                else begin
                  let r = Int64.mul x y in
                  let c = canon r in
                  if not (Int64.equal c r) then Rt_error.overflow ();
                  c
                end
            | Op.Sdiv ->
                if Int64.equal y 0L then Rt_error.division_by_zero ();
                canon (Int64.div x y)
            | Op.Udiv ->
                if Int64.equal y 0L then Rt_error.division_by_zero ();
                Int64.unsigned_div (zext_of ty x) (zext_of ty y)
            | Op.Srem ->
                if Int64.equal y 0L then Rt_error.division_by_zero ();
                canon (Int64.rem x y)
            | Op.Urem ->
                if Int64.equal y 0L then Rt_error.division_by_zero ();
                Int64.unsigned_rem (zext_of ty x) (zext_of ty y)
            | Op.And -> Int64.logand x y
            | Op.Or -> Int64.logor x y
            | Op.Xor -> Int64.logxor x y
            | Op.Shl -> canon (Int64.shift_left x (Int64.to_int y land 63))
            | Op.Lshr ->
                canon (Int64.shift_right_logical (zext_of ty x) (Int64.to_int y land 63))
            | Op.Ashr -> canon (Int64.shift_right x (Int64.to_int y land 63))
            | Op.Rotr ->
                let n = Int64.to_int y land 63 in
                if n = 0 then x
                else
                  Int64.logor (Int64.shift_right_logical x n)
                    (Int64.shift_left x (64 - n))
            | Op.Crc32 -> Hashes.crc32c x y
            | Op.Longmulfold -> Hashes.long_mul_fold x y
            | Op.Fadd -> Int64.bits_of_float (Int64.float_of_bits x +. Int64.float_of_bits y)
            | Op.Fsub -> Int64.bits_of_float (Int64.float_of_bits x -. Int64.float_of_bits y)
            | Op.Fmul -> Int64.bits_of_float (Int64.float_of_bits x *. Int64.float_of_bits y)
            | Op.Fdiv -> Int64.bits_of_float (Int64.float_of_bits x /. Int64.float_of_bits y)
            | op -> raise (Interp_trap ("bad op " ^ Op.name op))
          in
          lo.(d) <- r;
          hi.(d) <- Int64.shift_right r 63)
    | Bytecode.Cmp (pred, ty, d, a, b) ->
        lo.(d) <- (if holds pred ty a b then 1L else 0L);
        hi.(d) <- 0L
    | Bytecode.Un (op, dty, sty, d, s) -> (
        match op with
        | Op.Zext ->
            lo.(d) <- zext_of sty lo.(s);
            hi.(d) <- 0L
        | Op.Sext ->
            let v = sext_to sty lo.(s) in
            lo.(d) <- v;
            hi.(d) <- Int64.shift_right v 63
        | Op.Trunc ->
            lo.(d) <- sext_to dty lo.(s);
            hi.(d) <- Int64.shift_right lo.(d) 63
        | Op.Sitofp ->
            lo.(d) <- Int64.bits_of_float (Int64.to_float lo.(s));
            hi.(d) <- 0L
        | Op.Fptosi ->
            lo.(d) <- Int64.of_float (Int64.float_of_bits lo.(s));
            hi.(d) <- Int64.shift_right lo.(d) 63
        | op -> raise (Interp_trap ("bad unary op " ^ Op.name op)))
    | Bytecode.Select (_, d, c, a, b) ->
        let src = if Int64.equal (Int64.logand lo.(c) 1L) 1L then a else b in
        lo.(d) <- lo.(src);
        hi.(d) <- hi.(src)
    | Bytecode.Load (ty, d, a, off) -> load ty d (Int64.to_int lo.(a) + off)
    | Bytecode.Loadx (ty, d, base, index, scale, off) ->
        let addr = Int64.to_int lo.(base) + off in
        load ty d (if index >= 0 then addr + (Int64.to_int lo.(index) * scale) else addr)
    | Bytecode.Store (ty, s, a, off) ->
        let addr = Int64.to_int lo.(a) + off in
        if ty = Ty.I128 then begin
          Memory.store64 mem addr lo.(s);
          Memory.store64 mem (addr + 8) hi.(s)
        end
        else
          let size = max 1 (Ty.size_bytes ty) in
          Memory.store mem ~addr ~size lo.(s)
    | Bytecode.Gep (d, base, index, scale, off) ->
        let v = Int64.add lo.(base) (Int64.of_int off) in
        let v =
          if index >= 0 then Int64.add v (Int64.mul lo.(index) (Int64.of_int scale))
          else v
        in
        lo.(d) <- v;
        hi.(d) <- 0L
    | Bytecode.Call { dst; ret; addr; args } ->
        let regs = ref [] in
        Array.iter
          (fun (slot, ty) ->
            if ty = Ty.I128 then regs := hi.(slot) :: lo.(slot) :: !regs
            else regs := lo.(slot) :: !regs)
          args;
        let rlo, rhi =
          Emu.call_generated emu ~addr:(Int64.to_int addr)
            ~args:(Array.of_list (List.rev !regs))
        in
        if ret <> Ty.Void then begin
          lo.(dst) <- rlo;
          hi.(dst) <- (if ret = Ty.I128 then rhi else Int64.shift_right rlo 63)
        end
    | Bytecode.Jmp t -> pc := t
    | Bytecode.Condbr (c, t, e) ->
        pc := (if Int64.equal (Int64.logand lo.(c) 1L) 1L then t else e)
    | Bytecode.Cmpbr (pred, ty, a, b, t, e) -> pc := (if holds pred ty a b then t else e)
    | Bytecode.Ret s ->
        running := false;
        if s >= 0 then result := (lo.(s), hi.(s))
    | Bytecode.Unreachable -> raise (Interp_trap "unreachable executed")
  done;
  !result

(* ---------------- back-end interface ---------------- *)

(* The interpreter binds parameters at translation time: each [Op.Param]
   becomes an ordinary entry of the constant pool, so execution is exactly
   as fast as for a whole-plan translation. Integer parameters are pooled
   verbatim; string parameters get a fresh inline SSO struct whose address
   is the constant (recorded in [cm_data_blocks] so dispose frees it). *)
let translate ~params ~timing ~emu ~registry (m : Func.modul) :
    Qcomp_backend.Backend.compiled_module =
  let extern_addr sym =
    let e = Func.extern m sym in
    Registry.addr registry e.Func.ext_name
  in
  let mem = Emu.memory emu in
  let param_blocks = ref [] in
  let param_word =
    Array.map
      (function
        | Qcomp_backend.Artifact.Pv_int v -> v
        | Qcomp_backend.Artifact.Pv_str s ->
            if String.length s > Sso.inline_max then
              invalid_arg
                (Printf.sprintf
                   "interp: string parameter %S exceeds the inline SSO limit"
                   s);
            let addr = Memory.unscoped (fun () -> Sso.alloc mem s) in
            param_blocks := (addr, Sso.struct_size, 16) :: !param_blocks;
            Int64.of_int addr)
      params
  in
  let fns = ref [] in
  Vec.iter
    (fun f ->
      let bc =
        Timing.scope timing "Translate" (fun () ->
            Bytecode.translate ~params:param_word ~extern_addr f)
      in
      let target = Emu.target_of emu in
      let entry (e : Emu.t) =
        let nargs = bc.Bytecode.n_args in
        let args =
          Array.init nargs (fun k -> Emu.reg e target.Target.arg_regs.(k))
        in
        let rlo, rhi = run e bc args in
        Emu.set_reg e target.Target.ret_regs.(0) rlo;
        Emu.set_reg e target.Target.ret_regs.(1) rhi
      in
      let addr = Emu.add_runtime emu ("interp:" ^ f.Func.name) entry in
      fns := (f.Func.name, addr) :: !fns)
    m.Func.funcs;
  let fns = List.rev !fns in
  {
    Qcomp_backend.Backend.cm_functions = fns;
    cm_code_size = 0;
    cm_stats = [];
    cm_regions = [];
    (* every function is a host dispatch slot; dispose recycles them *)
    cm_runtime_slots = List.map snd fns;
    cm_data_blocks = !param_blocks;
    cm_disposed = false;
  }

(* Bytecode dispatch closures live in host memory and die with the
   process: there is nothing relocatable to snapshot. *)
let backend =
  {
    Qcomp_backend.Backend.name = "interpreter";
    supports_params = true;
    compile = Host translate;
  }
