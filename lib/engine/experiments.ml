(** Experiment drivers: everything needed to regenerate the paper's tables
    and figures (see DESIGN.md's per-experiment index).

    Compile time is wall-clock of the back-end; execution time is simulated
    cycles (reported as seconds at the nominal 2 GHz clock). Each
    measurement builds a fresh database instance so back-ends cannot
    interfere through the shared emulator. *)

open Qcomp_support

module Spec = Qcomp_workloads.Spec

type workload = Tpch | Tpcds

let tables_of workload sf =
  match workload with
  | Tpch -> Qcomp_workloads.Tpch.tables sf
  | Tpcds -> Qcomp_workloads.Tpcds.tables sf

let queries_of workload =
  match workload with
  | Tpch -> Qcomp_workloads.Tpch.queries
  | Tpcds -> Qcomp_workloads.Tpcds.queries

(** Build and load a database instance for a workload at scale factor [sf]. *)
let make_db ?(mem_size = 512 * 1024 * 1024) target workload ~sf =
  let db = Engine.create_db ~mem_size target in
  List.iter
    (fun (spec : Spec.table_spec) ->
      ignore
        (Engine.add_table db spec.Spec.schema ~rows:(spec.Spec.rows_at sf)
           ~seed:spec.Spec.seed spec.Spec.gens))
    (tables_of workload sf);
  db

type query_result = {
  qr_name : string;
  qr_compile_s : float;
  qr_exec_cycles : int;
  qr_rows : int;
  qr_checksum : int64;
  qr_functions : int;
  qr_code_size : int;
}

type workload_result = {
  wr_backend : string;
  wr_queries : query_result list;
  wr_compile_s : float;  (** total *)
  wr_exec_cycles : int;  (** total *)
  wr_functions : int;
  wr_timing : Timing.t;  (** accumulated phase breakdown *)
  wr_stats : (string * int) list;  (** accumulated back-end counters *)
}

let merge_stats acc stats =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    acc stats

(** Compile and (optionally) execute every query of a workload. *)
let run_workload ?(execute = true) ?(timing_enabled = true) db
    (backend : Qcomp_backend.Backend.t) queries : workload_result =
  let timing = Timing.create ~enabled:timing_enabled () in
  let results = ref [] in
  let stats = ref [] in
  List.iter
    (fun (q : Spec.query) ->
      let cq = Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan in
      let modul = cq.Qcomp_codegen.Codegen.modul in
      let nfuncs = Qcomp_support.Vec.length modul.Qcomp_ir.Func.funcs in
      let t0 = Timing.now () in
      let cm =
        Qcomp_backend.Backend.compile_module backend ~timing ~emu:db.Engine.emu
          ~registry:db.Engine.registry ~unwind:db.Engine.unwind modul
      in
      let compile_s = Timing.now () -. t0 in
      stats := merge_stats !stats cm.Qcomp_backend.Backend.cm_stats;
      let exec_cycles, rows, checksum =
        if execute then begin
          let r = Engine.execute db cq cm in
          (r.Engine.exec_cycles, r.Engine.output_count, Engine.checksum r.Engine.rows)
        end
        else (0, 0, 0L)
      in
      (* one-shot measurement: reclaim the query's code before the next *)
      Engine.dispose_module db cm;
      results :=
        {
          qr_name = q.Spec.q_name;
          qr_compile_s = compile_s;
          qr_exec_cycles = exec_cycles;
          qr_rows = rows;
          qr_checksum = checksum;
          qr_functions = nfuncs;
          qr_code_size = cm.Qcomp_backend.Backend.cm_code_size;
        }
        :: !results)
    queries;
  let qs = List.rev !results in
  {
    wr_backend = Qcomp_backend.Backend.name backend;
    wr_queries = qs;
    wr_compile_s = List.fold_left (fun a q -> a +. q.qr_compile_s) 0.0 qs;
    wr_exec_cycles = List.fold_left (fun a q -> a + q.qr_exec_cycles) 0 qs;
    wr_functions = List.fold_left (fun a q -> a + q.qr_functions) 0 qs;
    wr_timing = timing;
    wr_stats = !stats;
  }

(** Fresh-database convenience wrapper. *)
let measure ?execute ?timing_enabled target workload ~sf backend =
  let db = make_db target workload ~sf in
  run_workload ?execute ?timing_enabled db backend (queries_of workload)

(** Cross-back-end result validation: all checksums must agree with the
    interpreter's. Returns the list of disagreeing query names. *)
let validate target workload ~sf backends =
  let reference = measure target workload ~sf Engine.interpreter in
  let ref_sums =
    List.map (fun q -> (q.qr_name, q.qr_checksum)) reference.wr_queries
  in
  ( ref_sums,
    List.concat_map
      (fun b ->
        let r = measure target workload ~sf b in
        List.filter_map
          (fun q ->
            match List.assoc_opt q.qr_name ref_sums with
            | Some c when Int64.equal c q.qr_checksum -> None
            | _ -> Some (r.wr_backend ^ "/" ^ q.qr_name))
          r.wr_queries)
      backends )

let cycles_to_seconds = Engine.cycles_to_seconds

(* [query]'s generated IR module, on a fresh sf 1 database *)
let query_module target workload ~query =
  let q =
    match List.find_opt (fun (q : Spec.query) -> q.Spec.q_name = query) (queries_of workload) with
    | Some q -> q
    | None -> invalid_arg ("disassemble: no query " ^ query)
  in
  let db = make_db target workload ~sf:1 in
  (db, (Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan).Qcomp_codegen.Codegen.modul)

(** The machine code [backend] emits for [query]: every defined function
    of the module's artifact (or only [fn]), each as its instructions
    decoded by the emulator's loader, with their byte offsets in the
    text. The database is built at sf 1: code depends on the plan and the
    table addresses, not on the row counts. *)
let disassemble target workload backend ~query ?fn () =
  let artifact =
    match Qcomp_backend.Backend.compile_artifact backend with
    | Some a -> a
    | None -> invalid_arg ("disassemble: " ^ Qcomp_backend.Backend.name backend ^ " emits no code")
  in
  let db, m = query_module target workload ~query in
  let a =
    artifact ~timing:(Timing.create ~enabled:false ()) ~target ~registry:db.Engine.registry m
  in
  let text = a.Qcomp_backend.Artifact.a_text in
  let insts, at = Qcomp_vm.Emu.decode_all target text in
  let defined =
    List.sort
      (fun (s : Qcomp_backend.Artifact.symbol) t -> compare s.s_off t.Qcomp_backend.Artifact.s_off)
      (List.filter (fun (s : Qcomp_backend.Artifact.symbol) -> s.s_defined) a.Qcomp_backend.Artifact.a_syms)
  in
  (* a function runs from its symbol to the next one's, or the text's end *)
  let rec ranges = function
    | [] -> []
    | (s : Qcomp_backend.Artifact.symbol) :: rest ->
        let stop = match rest with t :: _ -> t.Qcomp_backend.Artifact.s_off | [] -> Bytes.length text in
        (s.s_name, s.s_off, stop) :: ranges rest
  in
  let chosen =
    List.filter (fun (name, _, _) -> match fn with None -> true | Some f -> f = name) (ranges defined)
  in
  if chosen = [] then invalid_arg ("disassemble: no function " ^ Option.value fn ~default:"");
  List.map
    (fun (name, start, stop) ->
      let code = ref [] in
      for off = stop - 1 downto start do
        if at.(off) >= 0 then code := (off, insts.(at.(off))) :: !code
      done;
      (name, !code))
    chosen

(** The bytecode the interpreter runs for [query]: every function of the
    module (or only [fn]), as {!Qcomp_interp.Bytecode.translate} lays it
    out, with runtime calls resolved against a fresh sf 1 database. *)
let bytecode target workload ~query ?fn () =
  let db, m = query_module target workload ~query in
  let extern_addr sym =
    Qcomp_runtime.Registry.addr db.Engine.registry (Qcomp_ir.Func.extern m sym).Qcomp_ir.Func.ext_name
  in
  let fns =
    List.filter_map
      (fun (f : Qcomp_ir.Func.t) ->
        match fn with
        | Some name when name <> f.Qcomp_ir.Func.name -> None
        | _ -> Some (Qcomp_interp.Bytecode.translate ~extern_addr f))
      (Vec.to_list m.Qcomp_ir.Func.funcs)
  in
  if fns = [] then invalid_arg ("disassemble: no function " ^ Option.value fn ~default:"");
  fns
