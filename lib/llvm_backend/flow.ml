(** Shared function-lowering state (LLVM's FunctionLoweringInfo): the
    LIR-value to virtual-register assignment used by both FastISel and
    SelectionDAG, which may interleave within one function when FastISel
    falls back. *)

open Qcomp_vm

type config = {
  fastisel_crc32 : bool;
      (** the upstreamed FastISel CRC32 support of Sec. V-A2 *)
  code_model_large : bool;  (** ablation: Large vs Small-PIC *)
}

let default_config = { fastisel_crc32 = true; code_model_large = false }

type fallback_reason = Intrinsic_or_call | Wide_int | Atomic | Bool_ops | Struct_pair

type stats = {
  mutable fb_intrinsic : int;
  mutable fb_i128 : int;
  mutable fb_atomic : int;
  mutable fb_bool : int;
  mutable fb_struct : int;
  mutable isel_time_in_fallback : float;
}

let new_stats () =
  {
    fb_intrinsic = 0;
    fb_i128 = 0;
    fb_atomic = 0;
    fb_bool = 0;
    fb_struct = 0;
    isel_time_in_fallback = 0.0;
  }

let count_fallback stats = function
  | Intrinsic_or_call -> stats.fb_intrinsic <- stats.fb_intrinsic + 1
  | Wide_int -> stats.fb_i128 <- stats.fb_i128 + 1
  | Atomic -> stats.fb_atomic <- stats.fb_atomic + 1
  | Bool_ops -> stats.fb_bool <- stats.fb_bool + 1
  | Struct_pair -> stats.fb_struct <- stats.fb_struct + 1

type t = {
  lir : Lir.func;
  mir : Mir.t;
  target : Target.t;
  cfg : config;
  rt_addr : string -> int64;
  extern_name : int -> string;
  vreg_lo : (int, int) Hashtbl.t;  (** LIR inst id -> vreg *)
  vreg_hi : (int, int) Hashtbl.t;
  arg_lo : int array;
  arg_hi : int array;
  stats : stats;
  fast_ovf : (int, int) Hashtbl.t;
      (** FastISel: the flag vreg of each overflow intrinsic selected in
          the current block, by LIR inst id *)
  dag_ovf : (int, int) Hashtbl.t;
      (** SelectionDAG: the flag vreg of each 128-bit overflow sequence of
          the current DAG, by node id *)
  gisel_ovf : (int, int) Hashtbl.t;
      (** GlobalISel: the flag vreg of each overflow intrinsic, by LIR inst
          id *)
  mutable cur : int;  (** current MIR block *)
  mutable trap_mb : int;
}

let create ~target ~cfg ~rt_addr ~extern_name (lir : Lir.func) =
  let nb = Qcomp_support.Vec.length lir.Lir.blocks in
  let mir = Mir.create target nb in
  let nargs = Array.length lir.Lir.arg_tys in
  {
    lir;
    mir;
    target;
    cfg;
    rt_addr;
    extern_name;
    vreg_lo = Hashtbl.create 64;
    vreg_hi = Hashtbl.create 16;
    arg_lo = Array.make nargs (-1);
    arg_hi = Array.make nargs (-1);
    stats = new_stats ();
    fast_ovf = Hashtbl.create 16;
    dag_ovf = Hashtbl.create 16;
    gisel_ovf = Hashtbl.create 16;
    cur = 0;
    trap_mb = -1;
  }

let push fl i = Mir.push fl.mir fl.cur i
let len fl = Qcomp_support.Vec.length fl.mir.Mir.blocks.(fl.cur).Mir.insts

(** vreg holding the low lane of an instruction's value (created lazily —
    also for forward references from phis). *)
let inst_vreg fl (i : Lir.inst) =
  match Hashtbl.find_opt fl.vreg_lo i.Lir.iid with
  | Some v -> v
  | None ->
      let v = Mir.new_vreg fl.mir in
      Hashtbl.add fl.vreg_lo i.Lir.iid v;
      v

let inst_vreg_hi fl (i : Lir.inst) =
  match Hashtbl.find_opt fl.vreg_hi i.Lir.iid with
  | Some v -> v
  | None ->
      let v = Mir.new_vreg fl.mir in
      Hashtbl.add fl.vreg_hi i.Lir.iid v;
      v

let arg_vreg fl k =
  if fl.arg_lo.(k) < 0 then fl.arg_lo.(k) <- Mir.new_vreg fl.mir;
  fl.arg_lo.(k)

let arg_vreg_hi fl k =
  if fl.arg_hi.(k) < 0 then fl.arg_hi.(k) <- Mir.new_vreg fl.mir;
  fl.arg_hi.(k)

(** Materialize any LIR value's low lane into a vreg at the current point. *)
let value_vreg fl (v : Lir.value) =
  match v with
  | Lir.Vinst i -> inst_vreg fl i
  | Lir.Varg (k, _) -> arg_vreg fl k
  | Lir.Vconst (_, c) ->
      let r = Mir.new_vreg fl.mir in
      push fl (Mir.M (Minst.Mov_ri (r, c)));
      r
  | Lir.Vconst128 c ->
      let r = Mir.new_vreg fl.mir in
      push fl (Mir.M (Minst.Mov_ri (r, Qcomp_support.I128.to_int64 c)));
      r

(** The shared per-function trap stub (overflow). *)
let trap_block fl =
  if fl.trap_mb < 0 then begin
    let b = Mir.add_block fl.mir in
    let saved = fl.cur in
    fl.cur <- b;
    push fl (Mir.M (Minst.Mov_ri (fl.target.Target.scratch, fl.rt_addr "umbra_throwOverflow")));
    push fl (Mir.M (Minst.Call_ind fl.target.Target.scratch));
    push fl (Mir.M (Minst.Brk 1));
    fl.cur <- saved;
    fl.trap_mb <- b
  end;
  fl.trap_mb

let is_x64 fl = fl.target.Target.arch = Target.X64

let const_of (v : Lir.value) =
  match v with Lir.Vconst (_, c) -> Some c | _ -> None
