(** The runtime function table exposed to generated code.

    Mirrors Umbra's runtime: memory management, hash tables, tuple buffers,
    sorting (which calls *back* into generated comparator code), string
    operations, 128-bit helpers, and the overflow/division traps. Each
    function reads its arguments from the argument registers, performs its
    work against VM memory, charges the emulator a deterministic cycle
    cost, and writes results to the return registers. *)

open Qcomp_support
open Qcomp_vm

type t = {
  index : (string, int) Hashtbl.t;
  names : string array;
  fns : (Emu.t -> unit) array;
}

(* Arguments and results that are addresses, sizes, counts or flags go
   through {!Emu.arg_int}/{!Emu.set_ret_int}, which box nothing; only the
   full 64-bit values (hashes, 128-bit halves, raw words) take the
   boxing [int64] accessors below. *)
let arg e k = Emu.reg e (Emu.arg_reg e k)
let iarg = Emu.arg_int
let iret = Emu.set_ret_int

let make_ret target =
  let r0 = target.Target.ret_regs.(0) and r1 = target.Target.ret_regs.(1) in
  ( (fun e v -> Emu.set_reg e r0 v),
    fun e lo hi ->
      Emu.set_reg e r0 lo;
      Emu.set_reg e r1 hi )

let i128_of lo hi =
  I128.logor
    (I128.shift_left (I128.of_int64 hi) 64)
    (I128.logand (I128.of_int64 lo) (I128.make ~hi:0L ~lo:(-1L)))

let split128 (v : I128.t) =
  (I128.to_int64 v, I128.to_int64 (I128.shift_right_logical v 64))

let functions target : (string * (Emu.t -> unit)) list =
  let ret, ret2 = make_ret target in
  [
    (* ---- traps ---- *)
    ("umbra_throwOverflow", fun _ -> Rt_error.overflow ());
    ("umbra_throwDivZero", fun _ -> Rt_error.division_by_zero ());
    (* ---- memory ---- *)
    ( "umbra_alloc",
      fun e ->
        let n = iarg e 0 in
        Emu.charge e (20 + (n / 64));
        iret e (Memory.alloc (Emu.memory e) n) );
    (* ---- hash table ---- *)
    (* The hash-table functions charge the machine themselves: the cycle
       model lives in {!Htable} next to the layout it prices (tag-filtered
       probes, direct addressing, arena zeroing). *)
    ( "umbra_htCreate",
      fun e -> iret e (Htable.create e ~payload_size:(iarg e 0) ~capacity_hint:(iarg e 1)) );
    ("umbra_htInsert", fun e -> iret e (Htable.insert e (iarg e 0) (arg e 1)));
    ("umbra_htLookup", fun e -> iret e (Htable.lookup e (iarg e 0) (arg e 1)));
    ("umbra_htNext", fun e -> iret e (Htable.next e (iarg e 0) (iarg e 1) (arg e 2)));
    (* ---- tuple buffers ---- *)
    ( "umbra_bufCreate",
      fun e ->
        let row_size = iarg e 0 in
        Emu.charge e 150;
        iret e (Tuplebuf.create (Emu.memory e) ~row_size ~capacity_hint:64) );
    ("umbra_bufAppend", fun e -> iret e (Tuplebuf.append e (iarg e 0)));
    ( "umbra_bufCount",
      fun e ->
        let buf = iarg e 0 in
        Emu.charge e 4;
        iret e (Tuplebuf.count (Emu.memory e) buf) );
    ( "umbra_bufRow",
      fun e ->
        let buf = iarg e 0 in
        Emu.charge e 5;
        iret e (Tuplebuf.row (Emu.memory e) buf (iarg e 1)) );
    ( "umbra_sort",
      fun e ->
        (* Sort rows with a generated comparator — the runtime-calls-back-
           into-generated-code case from the paper (sort operators). *)
        let mem = Emu.memory e in
        let buf = iarg e 0 in
        let cmp_addr = iarg e 1 in
        let n = Tuplebuf.count mem buf in
        if n > 1 then begin
          let idx = Array.init n (fun i -> i) in
          let data = Tuplebuf.data_ptr mem buf and rs = Tuplebuf.row_size mem buf in
          let cmp a b =
            let c = Emu.call_generated_int e ~addr:cmp_addr (data + (a * rs)) (data + (b * rs)) in
            (* stable: break comparator ties by input position, like
               std::stable_sort in Umbra's sort operator *)
            if c <> 0 then c else compare a b
          in
          Array.sort cmp idx;
          let move_cost = Tuplebuf.permute mem buf idx in
          Emu.charge e move_cost
        end;
        Emu.charge e (30 + (8 * n)) );
    (* ---- strings ---- *)
    ( "umbra_strEq",
      fun e ->
        let mem = Emu.memory e in
        let a = iarg e 0 and b = iarg e 1 in
        let la = Sso.length mem a in
        Emu.charge e (10 + (la / 8));
        iret e (Bool.to_int (Sso.equal mem a b)) );
    ( "umbra_strCmp",
      fun e ->
        let mem = Emu.memory e in
        let a = iarg e 0 and b = iarg e 1 in
        Emu.charge e (12 + (Sso.length mem a / 8));
        iret e (Sso.compare_str mem a b) );
    ( "umbra_strLike",
      fun e ->
        let mem = Emu.memory e in
        let s = iarg e 0 and p = iarg e 1 in
        Emu.charge e (20 + (3 * Sso.length mem s));
        iret e (Bool.to_int (Sso.like mem ~str:s ~pat:p)) );
    ( "umbra_strPrefix",
      fun e ->
        let mem = Emu.memory e in
        let s = iarg e 0 and p = iarg e 1 in
        Emu.charge e (10 + (Sso.length mem p / 8));
        iret e (Bool.to_int (Sso.has_prefix mem ~str:s ~prefix:p)) );
    ( "umbra_strHash",
      fun e ->
        let mem = Emu.memory e in
        let s = iarg e 0 in
        (* a short string hashes its two words; a long one, byte by byte *)
        let n = Sso.length mem s in
        Emu.charge e (if n <= Sso.inline_max then 8 else 8 + (2 * n));
        ret e (Sso.hash mem s) );
    (* ---- 128-bit helpers (hand-optimized in Umbra) ---- *)
    ( "umbra_i128MulFull",
      fun e ->
        let a = i128_of (arg e 0) (arg e 1) in
        let b = i128_of (arg e 2) (arg e 3) in
        Emu.charge e 25;
        if I128.mul_overflows a b then Rt_error.overflow ();
        let lo, hi = split128 (I128.mul a b) in
        ret2 e lo hi );
    ( "umbra_i128Div",
      fun e ->
        let a = i128_of (arg e 0) (arg e 1) in
        let b = i128_of (arg e 2) (arg e 3) in
        if I128.equal b I128.zero then Rt_error.division_by_zero ();
        Emu.charge e 60;
        let lo, hi = split128 (I128.div a b) in
        ret2 e lo hi );
    ( "umbra_i128Rem",
      fun e ->
        let a = i128_of (arg e 0) (arg e 1) in
        let b = i128_of (arg e 2) (arg e 3) in
        if I128.equal b I128.zero then Rt_error.division_by_zero ();
        Emu.charge e 60;
        let lo, hi = split128 (I128.rem a b) in
        ret2 e lo hi );
    (* ---- helper-call variants of special instructions (used by the
            Cranelift back-end when the custom CIR instructions of
            Table II are disabled) ---- *)
    ( "umbra_crc32",
      fun e ->
        Emu.charge e 4;
        ret e (Hashes.crc32c (arg e 0) (arg e 1)) );
    ( "umbra_longMulFold",
      fun e ->
        Emu.charge e 6;
        ret e (Hashes.long_mul_fold (arg e 0) (arg e 1)) );
    ( "umbra_mulFull64",
      fun e ->
        Emu.charge e 6;
        let p = I128.umul64_wide (arg e 0) (arg e 1) in
        let lo, hi = split128 p in
        ret2 e lo hi );
    ( "umbra_saddOvf64",
      fun e ->
        Emu.charge e 5;
        let a = arg e 0 and b = arg e 1 in
        let r = Int64.add a b in
        if Int64.compare (Int64.logand (Int64.logxor a (Int64.lognot b)) (Int64.logxor a r)) 0L < 0
        then Rt_error.overflow ();
        ret e r );
    ( "umbra_ssubOvf64",
      fun e ->
        Emu.charge e 5;
        let a = arg e 0 and b = arg e 1 in
        let r = Int64.sub a b in
        if Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) 0L < 0 then
          Rt_error.overflow ();
        ret e r );
    ( "umbra_smulOvf64",
      fun e ->
        Emu.charge e 7;
        let a = arg e 0 and b = arg e 1 in
        let wide = I128.smul64_wide a b in
        let r = Int64.mul a b in
        let hi = I128.to_int64 (I128.shift_right wide 64) in
        if not (Int64.equal hi (Int64.shift_right r 63)) then Rt_error.overflow ();
        ret e r );
    ( "umbra_f2i",
      fun e ->
        Emu.charge e 8;
        ret e (Int64.of_float (Int64.float_of_bits (arg e 0))) );
    ( "umbra_i2f",
      fun e ->
        Emu.charge e 8;
        ret e (Int64.bits_of_float (Int64.to_float (arg e 0))) );
  ]

let create target =
  let fl = functions target in
  let index = Hashtbl.create 64 in
  List.iteri (fun i (name, _) -> Hashtbl.add index name i) fl;
  {
    index;
    names = Array.of_list (List.map fst fl);
    fns = Array.of_list (List.map snd fl);
  }

(** Install the table into an emulator instance. *)
let install t emu = Emu.set_runtime emu t.fns t.names

let slot t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> invalid_arg ("unknown runtime function " ^ name)

(** Address generated code must call to reach [name]. *)
let addr t name = Emu.runtime_addr (slot t name)
