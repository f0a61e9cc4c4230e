(** Query engine driver: owns the database instance (emulator, memory,
    runtime, catalog, tables) and runs plans through a chosen back-end.

    Execution times are simulated cycles from the emulator; compile times
    are wall-clock of the back-end (broken down by the timing collector). *)

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

let create_db ?(mem_size = 256 * 1024 * 1024) target =
  let emu = Emu.create ~mem_size target in
  let registry = Registry.create target in
  Registry.install registry emu;
  (* Build the copy-and-patch stencil library at engine start so the first
     stencil-compiled query pays only for blit + patch. *)
  if target.Target.arch = Target.X64 then Qcomp_stencil.Stencil.prewarm ();
  { target; emu; registry; unwind = Unwind.create (); catalog = []; tables = [] }

let memory db = Emu.memory db.emu

(** Per-domain view: fresh execution context over the same machine, shared
    catalog/tables/registries. See engine.mli. *)
let domain_view db = { db with emu = Emu.context db.emu }

(** Create, register and populate a table. *)
let add_table db (schema : Schema.t) ~rows ~seed gens =
  let table = Table.create (memory db) schema ~rows in
  Datagen.fill (memory db) table ~seed gens;
  db.catalog <- (schema.Schema.table_name, schema) :: db.catalog;
  db.tables <- (schema.Schema.table_name, table) :: db.tables;
  table

(** Register an externally populated table. *)
let register_table db (schema : Schema.t) table =
  db.catalog <- (schema.Schema.table_name, schema) :: db.catalog;
  db.tables <- (schema.Schema.table_name, table) :: db.tables

let table db name = List.assoc name db.tables

(** Fingerprint of everything a relocatable artifact's address assumptions
    depend on besides the runtime registry: the target and the exact
    column layout of every table (codegen bakes [Table.col_addr] results
    into scan loops as immediates). Two databases built by the same
    deterministic [make_db] sequence get the same fingerprint; snapshots
    refuse to link against anything else. *)
let layout_fingerprint db =
  let h = ref 0x1A_70_07L in
  let mix_int i = h := Hashes.crc32c !h (Int64.of_int i) in
  let mix_str s =
    mix_int (String.length s);
    String.iter (fun c -> h := Hashes.crc32c_byte !h (Char.code c)) s
  in
  mix_str db.target.Target.name;
  let tables =
    List.sort (fun (a, _) (b, _) -> String.compare a b) db.tables
  in
  List.iter
    (fun (nm, t) ->
      mix_str nm;
      mix_int (Table.rows t);
      let schema = Table.schema t in
      for c = 0 to Schema.num_cols schema - 1 do
        mix_str schema.Schema.cols.(c).Schema.col_name;
        mix_int (Table.col_addr t c)
      done)
    tables;
  Hashes.hash64 !h

(* ---------------- results ---------------- *)

type cell =
  | Int of int64
  | Dec of I128.t * int  (** scaled value, scale *)
  | Str of string
  | Bool of bool

let pp_cell fmt = function
  | Int v -> Format.fprintf fmt "%Ld" v
  | Dec (v, 0) -> Format.fprintf fmt "%s" (I128.to_string v)
  | Dec (v, s) ->
      let str = I128.to_string (if I128.is_negative v then I128.neg v else v) in
      let str = if String.length str <= s then String.make (s + 1 - String.length str) '0' ^ str else str in
      let n = String.length str in
      Format.fprintf fmt "%s%s.%s"
        (if I128.is_negative v then "-" else "")
        (String.sub str 0 (n - s))
        (String.sub str (n - s) s)
  | Str s -> Format.fprintf fmt "%S" s
  | Bool b -> Format.fprintf fmt "%b" b

type result = {
  rows : cell array list;
  exec_cycles : int;
  exec_instructions : int;
  output_count : int;
}

(** Read the materialized output rows of an executed query. *)
let checksum (rows : cell array list) =
  let cell_hash = function
    | Int v -> Hashes.long_mul_fold v 0x9E3779B97F4A7C15L
    | Dec (v, s) ->
        Hashes.long_mul_fold
          (Int64.logxor (I128.to_int64 v)
             (I128.to_int64 (I128.shift_right_logical v 64)))
          (Int64.of_int (s + 3))
    | Str s ->
        let h = ref 7L in
        String.iter (fun c -> h := Hashes.crc32c_byte !h (Char.code c)) s;
        !h
    | Bool b -> if b then 5L else 11L
  in
  (* order-sensitive so differential tests catch sorting differences *)
  List.fold_left
    (fun acc row ->
      let rh =
        Array.fold_left (fun h c -> Hashes.combine h (cell_hash c)) 17L row
      in
      Int64.add (Int64.mul acc 1099511628211L) rh)
    0L rows

(* ---------------- running compiled plans ---------------- *)

let read_output db (cq : Qcomp_codegen.Codegen.compiled) ~state : cell array list =
  let mem = memory db in
  let layout = Qcomp_codegen.Codegen.output_layout cq in
  let buf = Int64.to_int (Memory.load64 mem (state + cq.Qcomp_codegen.Codegen.output_slot)) in
  let count = Tuplebuf.count mem buf in
  let rows = ref [] in
  for i = count - 1 downto 0 do
    let row = Tuplebuf.row mem buf i in
    let cells =
      Array.mapi
        (fun k ty ->
          let fld = Qcomp_codegen.Layout.field layout k in
          let off = row + fld.Qcomp_codegen.Layout.f_off in
          match ty with
          | Sqlty.Int32 | Sqlty.Date ->
              Int (Memory.load mem ~addr:off ~size:4 ~sext:true)
          | Sqlty.Int64 -> Int (Memory.load64 mem off)
          | Sqlty.Bool ->
              Bool (not (Int64.equal (Memory.load mem ~addr:off ~size:1 ~sext:false) 0L))
          | Sqlty.Decimal s ->
              Dec
                ( I128.make ~hi:(Memory.load64 mem (off + 8)) ~lo:(Memory.load64 mem off),
                  s )
          | Sqlty.Str -> Str (Sso.read mem off))
        cq.Qcomp_codegen.Codegen.output_tys
    in
    rows := cells :: !rows
  done;
  !rows

(** Execute an already-back-end-compiled query over every row: each step
    in order, [`Table] steps over the whole table [(0, rows)], whole-object
    steps with [(0, 0)]. *)
let execute db (cq : Qcomp_codegen.Codegen.compiled)
    (cm : Qcomp_backend.Backend.compiled_module) : result =
  let mem = memory db in
  (* every per-execution allocation (state block, tuple buffers, hash-table
     arenas, string bodies) lands in one scope and is recycled once the
     output rows are materialized, so one-shot runs don't grow the heap *)
  let scope = Memory.new_scope () in
  Fun.protect
    ~finally:(fun () -> Memory.free_scope mem scope)
    (fun () ->
      Memory.with_scope scope (fun () ->
          let state =
            Memory.alloc mem ~align:16 cq.Qcomp_codegen.Codegen.state_size
          in
          Memory.fill mem ~addr:state ~len:cq.Qcomp_codegen.Codegen.state_size
            '\000';
          List.iter
            (fun (slot, fn) ->
              Memory.store64 mem (state + slot)
                (Qcomp_backend.Backend.find_fn cm fn))
            cq.Qcomp_codegen.Codegen.fn_ptr_fixups;
          Emu.reset_counters db.emu;
          List.iter
            (fun (step : Qcomp_codegen.Codegen.step) ->
              let addr =
                Int64.to_int (Qcomp_backend.Backend.find_fn cm step.fn_name)
              in
              let hi =
                match step.range with
                | `Table t -> Table.rows (table db t)
                | `Whole -> 0
              in
              ignore
                (Emu.call db.emu ~addr
                   ~args:[| Int64.of_int state; 0L; Int64.of_int hi |]))
            cq.Qcomp_codegen.Codegen.steps;
          let exec_cycles = Emu.cycles db.emu in
          let exec_instructions = Emu.instructions_executed db.emu in
          let rows = read_output db cq ~state in
          { rows; exec_cycles; exec_instructions; output_count = List.length rows }))

(** Compile a plan to IR. *)
let plan_to_ir db ~name plan =
  Qcomp_codegen.Codegen.compile_query ~mem:(memory db) ~catalog:db.catalog
    ~tables:db.tables ~name plan

(* Back-end compile of a codegen result, with its wall-time in seconds. *)
let compile db ~(backend : Qcomp_backend.Backend.t) ~timing
    (cq : Qcomp_codegen.Codegen.compiled) =
  let t0 = Timing.now () in
  let cm =
    Qcomp_backend.Backend.compile_module backend ~timing ~emu:db.emu
      ~registry:db.registry ~unwind:db.unwind cq.Qcomp_codegen.Codegen.modul
  in
  (cm, Timing.now () -. t0)

(** Full path: plan -> IR -> back-end -> execute. Returns the result, the
    compile wall-time in seconds, and the back-end module. *)
let run_plan db ~(backend : Qcomp_backend.Backend.t) ~timing ~name plan =
  let cq = plan_to_ir db ~name plan in
  let cm, compile_seconds = compile db ~backend ~timing cq in
  (execute db cq cm, compile_seconds, cm)

(** Release the code regions, unwind entries and host dispatch slots owned
    by [cm]. Safe to call twice (second call is a no-op). After this, any
    execution through the module's addresses traps. *)
let dispose_module db cm =
  Qcomp_backend.Backend.dispose ~emu:db.emu ~unwind:db.unwind cm

(** Compile [plan], hand the compiled query and module to [f], and dispose
    the module when [f] returns or raises. The bracket for one-shot
    callers (CLI runs, benchmarks, validation sweeps) that would otherwise
    leak one code region per query. *)
let with_compiled db ~(backend : Qcomp_backend.Backend.t) ~timing ~name plan f =
  let cq = plan_to_ir db ~name plan in
  let cm, compile_seconds = compile db ~backend ~timing cq in
  Fun.protect
    ~finally:(fun () -> dispose_module db cm)
    (fun () -> f cq cm compile_seconds)

(** Simulated seconds at the nominal clock (2 GHz, as the paper's Xeon). *)
let cycles_to_seconds c = float_of_int c /. 2.0e9

let interpreter = Qcomp_interp.Interp.backend
let stencil = Qcomp_stencil.Stencil.backend
let directemit = Qcomp_directemit.Directemit.backend
let cranelift = Qcomp_clif.Clif.backend Qcomp_clif.Frontend.all_features
let llvm_cheap = Qcomp_llvm.Orc.backend ~name:"llvm-cheap" Qcomp_llvm.Orc.cheap_config
let llvm_opt = Qcomp_llvm.Orc.backend ~name:"llvm-opt" Qcomp_llvm.Orc.opt_config
let gcc = Qcomp_gcc.Gcc.backend

let all_backends (target : Target.t) =
  [ interpreter; cranelift; llvm_cheap; llvm_opt; gcc ]
  @ (if target.Target.arch = Target.X64 then [ stencil; directemit ] else [])

let backend_of_name target name =
  List.find_opt
    (fun b -> String.equal (Qcomp_backend.Backend.name b) name)
    (all_backends target)

(* ---------------- adaptive back-end selection ---------------- *)

(** Rows each pipeline of [plan] will scan — the driver of execution time,
    and hence of how much compile time is worth spending. *)
let rec estimated_work db (p : Algebra.t) =
  match p with
  | Algebra.Scan { table; _ } -> (
      match List.assoc_opt table db.tables with
      | Some t -> Table.rows t
      | None -> 0)
  | Algebra.Filter { input; _ }
  | Algebra.Project { input; _ }
  | Algebra.Limit { input; _ } ->
      estimated_work db input
  | Algebra.Group_by { input; _ } | Algebra.Order_by { input; _ } ->
      (* the extra pipeline rescans the aggregate/sort state *)
      estimated_work db input + 1000
  | Algebra.Hash_join { build; probe; _ } ->
      estimated_work db build + estimated_work db probe

(** The tiered-serving ladder: every back-end a serving tier can start on
    or hot-swap to, ordered by {!Costmodel.exec_rate}, weakest first.
    [gcc] and [llvm-cheap] are off it: the first is far too slow to
    compile for mid-query upgrades, the second compiles slower and runs
    slower than [cranelift]. *)
let tier_ladder db : (string * Qcomp_backend.Backend.t) list =
  let rate (nm, _) = Costmodel.exec_rate db.target nm in
  List.stable_sort
    (fun a b -> Float.compare (rate a) (rate b))
    (List.map
       (fun b -> (Qcomp_backend.Backend.name b, b))
       ([ interpreter ]
       @ (if db.target.Target.arch = Target.X64 then [ stencil; directemit ] else [])
       @ [ cranelift; llvm_opt ]))

(** The one tier decision: the ladder rung minimizing [compile_s] plus
    [interp_s] of interpreter-equivalent execution divided by its rate;
    [cur] counts with zero compile seconds and wins ties. *)
let cheapest_rung ?cur db ~interp_s ~compile_s =
  let price (nm, b) =
    (if Some nm = cur then 0.0 else compile_s nm b)
    +. (interp_s /. Costmodel.exec_rate db.target nm)
  in
  let ladder = tier_ladder db in
  (* the running rung seeds the scan and only a strictly cheaper one
     replaces it; other ties go to the weaker rung *)
  let seed =
    match List.find_opt (fun (nm, _) -> Some nm = cur) ladder with
    | Some r -> r
    | None -> List.hd ladder
  in
  fst
    (List.fold_left
       (fun ((_, best) as acc) r ->
         let p = price r in
         if p < best then (r, p) else acc)
       (seed, price seed) ladder)

(** Umbra-style adaptive choice (Sec. II and Fig. 7 of the paper): the
    rung whose modelled compile of [m] plus predicted execution is least,
    execution predicted from the plan's estimated work alone. *)
let adaptive_backend db plan m =
  cheapest_rung db
    ~interp_s:(Costmodel.prior_seconds ~work:(estimated_work db plan))
    ~compile_s:(fun nm _ -> Costmodel.compile_seconds ~backend:nm m)

(** Rungs strictly stronger than [name], weakest first; empty when [name]
    is the top of the ladder or not on it (e.g. [gcc]). *)
let stronger_than db name =
  let rec drop = function
    | [] -> []
    | (n, _) :: rest -> if String.equal n name then rest else drop rest
  in
  drop (tier_ladder db)

(** [run_plan] with the back-end chosen by {!adaptive_backend}; also
    returns the name of the back-end that ran. *)
let run_plan_adaptive db ~timing ~name plan =
  let cq = plan_to_ir db ~name plan in
  let bname, backend = adaptive_backend db plan cq.Qcomp_codegen.Codegen.modul in
  let cm, compile_s = compile db ~backend ~timing cq in
  (execute db cq cm, compile_s, cm, bname)
