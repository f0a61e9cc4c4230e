(** Query engine driver — the library's main entry point.

    A {!db} owns a deterministic virtual machine ({!Qcomp_vm.Emu.t}), the
    query runtime installed on it, and a catalog of columnar tables living
    in the VM's memory. Plans from {!Qcomp_plan.Algebra} are compiled to
    Umbra-style IR ({!plan_to_ir}), handed to any of the six back-ends, and
    executed ({!run_plan}); execution cost is reported in simulated cycles
    and compile cost in wall-clock seconds, the two measurements behind
    every experiment in the paper. *)

open Qcomp_support
open Qcomp_vm
open Qcomp_runtime
open Qcomp_storage
open Qcomp_plan

type db = {
  target : Target.t;
  emu : Emu.t;
  registry : Registry.t;
  unwind : Unwind.t;
  mutable catalog : Algebra.catalog;
  mutable tables : (string * Table.t) list;
}

(** [create_db ?mem_size target] is a fresh database instance: an
    emulated machine of [mem_size] bytes (default 256 MiB) with the query
    runtime registered. *)
val create_db : ?mem_size:int -> Target.t -> db

(** The instance's linear memory (tables, hash tables and generated-code
    working set all live here). *)
val memory : db -> Memory.t

(** A per-domain view of the database: same catalog, tables, memory and
    code/runtime registries, but a fresh {!Qcomp_vm.Emu.context} with its
    own registers, flags and cycle counters. Each worker domain of the
    parallel serving pool executes (and compiles) through its own view so
    execution state never races; all compiled code lands in the shared
    registries. The view's context owns a VM stack: free it with
    {!Qcomp_vm.Emu.release_context} once the domain is done. *)
val domain_view : db -> db

(** [add_table db schema ~rows ~seed gens] creates a columnar table, fills
    it deterministically with one generator per column, and registers it in
    the catalog. *)
val add_table : db -> Schema.t -> rows:int -> seed:int64 -> Datagen.gen array -> Table.t

(** Register an externally populated table. *)
val register_table : db -> Schema.t -> Table.t -> unit

(** Look up a table by name. Raises [Not_found]. *)
val table : db -> string -> Table.t

(** Fingerprint of the target name plus every table's row count and exact
    column addresses — everything codegen bakes into scan code as
    immediates. Code-cache snapshots store it and refuse to re-link into a
    database with a different layout. *)
val layout_fingerprint : db -> int64

(** A materialized output cell. *)
type cell =
  | Int of int64
  | Dec of I128.t * int  (** scaled value, scale *)
  | Str of string
  | Bool of bool

val pp_cell : Format.formatter -> cell -> unit

type result = {
  rows : cell array list;
  exec_cycles : int;  (** simulated cycles of the whole execution *)
  exec_instructions : int;
  output_count : int;
}

(** Deterministic, order-sensitive checksum of a result set — the oracle
    the differential tests compare across back-ends. *)
val checksum : cell array list -> int64

(** Read the materialized output rows of an executed query. *)
val read_output : db -> Qcomp_codegen.Codegen.compiled -> state:int -> cell array list

(** Execute an already-back-end-compiled query over every row: the
    compiled steps run in order, table scans over [(0, rows)]. *)
val execute :
  db ->
  Qcomp_codegen.Codegen.compiled ->
  Qcomp_backend.Backend.compiled_module ->
  result

(** Compile a plan to an Umbra IR module (produce/consume code generation). *)
val plan_to_ir : db -> name:string -> Algebra.t -> Qcomp_codegen.Codegen.compiled

(** Full path: plan -> IR -> back-end -> execute. Returns the result, the
    compile wall-time in seconds, and the back-end's compiled module. *)
val run_plan :
  db ->
  backend:Qcomp_backend.Backend.t ->
  timing:Timing.t ->
  name:string ->
  Algebra.t ->
  result * float * Qcomp_backend.Backend.compiled_module

(** Release the code regions, unwind entries and host dispatch slots owned
    by a compiled module (see {!Qcomp_backend.Backend.dispose}). Safe to
    call twice. Callers of {!run_plan} own the returned module and should
    dispose it when the query will not run again; {!with_compiled} does
    this automatically. *)
val dispose_module : db -> Qcomp_backend.Backend.compiled_module -> unit

(** [with_compiled db ~backend ~timing ~name plan f] compiles [plan],
    applies [f] to the compiled query, the back-end module, and the
    compile wall-time in seconds, then disposes the module (even on
    exceptions). One-shot callers should prefer this over {!run_plan} so
    per-query code memory is reclaimed. *)
val with_compiled :
  db ->
  backend:Qcomp_backend.Backend.t ->
  timing:Timing.t ->
  name:string ->
  Algebra.t ->
  (Qcomp_codegen.Codegen.compiled ->
  Qcomp_backend.Backend.compiled_module ->
  float ->
  'a) ->
  'a

(** Simulated seconds at the nominal clock (2 GHz, as the paper's Xeon). *)
val cycles_to_seconds : int -> float

(** {1 The paper's six back-ends, plus the copy-and-patch stencil rung} *)

val interpreter : Qcomp_backend.Backend.t

(** Copy-and-patch: per-query compilation is memcpy + hole patching from a
    pre-built stencil library. x86-64 only, like [directemit]. *)
val stencil : Qcomp_backend.Backend.t

(** x86-64 only, as in Umbra. *)
val directemit : Qcomp_backend.Backend.t

val cranelift : Qcomp_backend.Backend.t

(** -O0: FastISel with SelectionDAG fallback, fast register allocator. *)
val llvm_cheap : Qcomp_backend.Backend.t

(** -O2: optimization pipeline, SelectionDAG, greedy register allocator. *)
val llvm_opt : Qcomp_backend.Backend.t

val gcc : Qcomp_backend.Backend.t

(** All back-ends applicable to a target. *)
val all_backends : Target.t -> Qcomp_backend.Backend.t list

(** [backend_of_name target name] is the back-end called [name] (its
    {!Qcomp_backend.Backend.name}) among [all_backends target]; [None] for
    an unknown name or one the target lacks. *)
val backend_of_name : Target.t -> string -> Qcomp_backend.Backend.t option

(** {1 Adaptive back-end selection}

    Every tier choice is one argmin over {!tier_ladder} ({!cheapest_rung}):
    a rung's modelled compile seconds plus the predicted
    interpreter-equivalent seconds divided by its {!Costmodel.exec_rate}. *)

(** Rows each pipeline of the plan will scan — the driver of execution
    time, and hence of how much compile time is worth spending. *)
val estimated_work : db -> Algebra.t -> int

(** The tiered-serving ladder for the instance's target: every back-end a
    serving tier can start on or hot-swap to, weakest to strongest by
    {!Costmodel.exec_rate}. *)
val tier_ladder : db -> (string * Qcomp_backend.Backend.t) list

(** [cheapest_rung ?cur db ~interp_s ~compile_s] is the ladder rung
    minimizing [compile_s name backend + interp_s / rate]; [cur], the rung
    already running, counts with zero compile seconds and wins ties, other
    ties go to the weaker rung. *)
val cheapest_rung :
  ?cur:string ->
  db ->
  interp_s:float ->
  compile_s:(string -> Qcomp_backend.Backend.t -> float) ->
  string * Qcomp_backend.Backend.t

(** Umbra-style adaptive choice (Sec. II and Fig. 7 of the paper):
    {!cheapest_rung} with each rung's modelled compile of the plan's IR
    module [m], and execution predicted from {!estimated_work} through
    {!Costmodel.prior_seconds}. Returns the chosen back-end and its name. *)
val adaptive_backend :
  db -> Algebra.t -> Qcomp_ir.Func.modul -> string * Qcomp_backend.Backend.t

(** Rungs strictly stronger (higher rate) than the named one, weakest
    first; empty for the top rung or a back-end off the ladder. *)
val stronger_than : db -> string -> (string * Qcomp_backend.Backend.t) list

(** [run_plan] with the back-end chosen by {!adaptive_backend} (one
    codegen serves the pricing and the compile); also returns the name of
    the back-end that ran. *)
val run_plan_adaptive :
  db ->
  timing:Timing.t ->
  name:string ->
  Algebra.t ->
  result * float * Qcomp_backend.Backend.compiled_module * string
