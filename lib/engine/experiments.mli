(** Experiment drivers behind every table and figure of the paper (see
    DESIGN.md for the per-experiment index and EXPERIMENTS.md for
    paper-vs-measured results).

    Compile time is wall-clock of the back-end; execution time is simulated
    cycles. Each measurement builds a fresh database instance so back-ends
    cannot interfere with one another through the shared emulator. *)

open Qcomp_support

type workload = Tpch | Tpcds

(** The table specifications of a workload at scale factor [sf]. *)
val tables_of : workload -> int -> Qcomp_workloads.Spec.table_spec list

(** All query plans of a workload (22 for TPC-H-like, 103 for TPC-DS-like). *)
val queries_of : workload -> Qcomp_workloads.Spec.query list

(** Build and load a database instance for a workload at scale factor [sf]. *)
val make_db :
  ?mem_size:int ->
  Qcomp_vm.Target.t ->
  workload ->
  sf:int ->
  Engine.db

(** Per-query measurement record. *)
type query_result = {
  qr_name : string;
  qr_compile_s : float;
  qr_exec_cycles : int;
  qr_rows : int;
  qr_checksum : int64;
  qr_functions : int;
  qr_code_size : int;
}

(** Whole-workload measurement record. *)
type workload_result = {
  wr_backend : string;
  wr_queries : query_result list;
  wr_compile_s : float;  (** total *)
  wr_exec_cycles : int;  (** total *)
  wr_functions : int;
  wr_timing : Timing.t;  (** accumulated phase breakdown *)
  wr_stats : (string * int) list;  (** accumulated back-end counters *)
}

(** Compile and (optionally) execute a list of queries against [db].
    [timing_enabled] controls whether phase scopes are recorded (modelling
    -ftime-report / -time-passes instrumentation). *)
val run_workload :
  ?execute:bool ->
  ?timing_enabled:bool ->
  Engine.db ->
  Qcomp_backend.Backend.t ->
  Qcomp_workloads.Spec.query list ->
  workload_result

(** Fresh-database convenience wrapper around {!run_workload} over the
    whole workload. *)
val measure :
  ?execute:bool ->
  ?timing_enabled:bool ->
  Qcomp_vm.Target.t ->
  workload ->
  sf:int ->
  Qcomp_backend.Backend.t ->
  workload_result

(** Cross-back-end result validation: every checksum must agree with the
    interpreter's. Returns the interpreter's [(query, checksum)] reference
    and the disagreeing ["backend/query"] names. *)
val validate :
  Qcomp_vm.Target.t ->
  workload ->
  sf:int ->
  Qcomp_backend.Backend.t list ->
  (string * int64) list * string list

val cycles_to_seconds : int -> float

(** [disassemble target wl backend ~query ?fn ()] compiles [query] with
    [backend] (a database at sf 1) and decodes its artifact's text with
    {!Qcomp_vm.Emu.decode_all}: one [(function, [(offset, instruction)])]
    entry per defined function, or only [fn]. Raises [Invalid_argument]
    for an unknown query or function, or a back-end without machine
    code. *)
val disassemble :
  Qcomp_vm.Target.t ->
  workload ->
  Qcomp_backend.Backend.t ->
  query:string ->
  ?fn:string ->
  unit ->
  (string * (int * Qcomp_vm.Minst.t) list) list

(** [bytecode target wl ~query ?fn ()] translates [query]'s module (a
    database at sf 1) to the interpreter's bytecode: one
    {!Qcomp_interp.Bytecode.fn} per function, or only [fn]. Raises
    [Invalid_argument] for an unknown query or function. *)
val bytecode :
  Qcomp_vm.Target.t ->
  workload ->
  query:string ->
  ?fn:string ->
  unit ->
  Qcomp_interp.Bytecode.fn list
