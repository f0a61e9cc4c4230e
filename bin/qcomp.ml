(* The qcomp command-line driver.

     qcomp run   --workload tpch --query q06 --backend llvm-opt --sf 2
     qcomp bench --workload tpcds --backend all --sf 1 [--target a64]
     qcomp validate --workload tpch --sf 1
     qcomp dis --backend llvm-opt --query q06 [--fn F] [--target a64]

   `run` executes one query and prints its rows and timings; `bench`
   compiles+executes a whole workload per back-end and prints a Table
   III-style summary; `validate` checks every back-end and the Cached,
   Tiered and Tiered+reopt serving replays against the interpreter; `dis`
   prints the decoded machine code a back-end emits for one query. *)

open Cmdliner
open Qcomp_engine
module Spec = Qcomp_workloads.Spec

let workload_of_name = function
  | "tpch" -> Some Experiments.Tpch
  | "tpcds" -> Some Experiments.Tpcds
  | _ -> None

let target_of_name = function
  | "x64" -> Some Qcomp_vm.Target.x64
  | "a64" -> Some Qcomp_vm.Target.a64
  | _ -> None

(* common options *)
let workload_arg =
  Arg.(value & opt string "tpch" & info [ "w"; "workload" ] ~docv:"WL" ~doc:"Workload: tpch or tpcds.")

let sf_arg = Arg.(value & opt int 1 & info [ "sf" ] ~docv:"N" ~doc:"Scale factor.")

let target_arg =
  Arg.(value & opt string "x64" & info [ "target" ] ~docv:"ARCH" ~doc:"Virtual target: x64 or a64.")

let backend_arg =
  Arg.(value & opt string "llvm-opt" & info [ "b"; "backend" ] ~docv:"BE"
         ~doc:"Back-end: interpreter|stencil|directemit|cranelift|llvm-cheap|llvm-opt|gcc|adaptive|all.")

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let resolve_common wl target =
  let wl = match workload_of_name wl with Some w -> w | None -> fail "unknown workload %s" wl in
  let target = match target_of_name target with Some t -> t | None -> fail "unknown target %s" target in
  (wl, target)

(* the back-ends a --backend value names: one, or with "all" every one the
   target has *)
let backends_of_arg target bname =
  if bname = "all" then Engine.all_backends target
  else
    match Engine.backend_of_name target bname with
    | Some b -> [ b ]
    | None -> fail "unknown back-end %s for %s" bname target.Qcomp_vm.Target.name

(* ---- run ---- *)

let run_cmd =
  let query_arg =
    Arg.(value & opt string "" & info [ "q"; "query" ] ~docv:"Q" ~doc:"Query name (e.g. q06, ds001); empty = first.")
  in
  let max_rows_arg =
    Arg.(value & opt int 20 & info [ "max-rows" ] ~docv:"N" ~doc:"Print at most N result rows.")
  in
  (* one row per back-end, each on a fresh database so no back-end's
     compilations shift another's addresses or cycles. host_ns/inst is the
     host time per emulated instruction: the median of [host_reps]
     executions after a first one, which pays the emulator's one-time
     translation of the module *)
  let host_reps = 5 in
  let run_all wl sf target (q : Spec.query) =
    List.iter
      (fun b ->
        let db = Experiments.make_db target wl ~sf in
        let timing = Qcomp_support.Timing.create ~enabled:false () in
        Engine.with_compiled db ~backend:b ~timing ~name:q.Spec.q_name q.Spec.q_plan
          (fun cq cm _ ->
            let r = Engine.execute db cq cm in
            let host_ns =
              List.init host_reps (fun _ ->
                  let t0 = Qcomp_support.Timing.now () in
                  ignore (Engine.execute db cq cm);
                  1e9 *. (Qcomp_support.Timing.now () -. t0))
              |> List.sort compare
              |> fun l -> List.nth l (host_reps / 2)
            in
            let per_inst =
              if r.Engine.exec_instructions = 0 then "-"
              else Printf.sprintf "%.2f" (host_ns /. float_of_int r.Engine.exec_instructions)
            in
            Printf.printf "%-12s cycles=%10d insts=%10d code=%7d rows=%d host_ns/inst=%s\n%!"
              (Qcomp_backend.Backend.name b) r.Engine.exec_cycles r.Engine.exec_instructions
              cm.Qcomp_backend.Backend.cm_code_size r.Engine.output_count per_inst))
      (Engine.all_backends target)
  in
  let run_one wl sf target bname (q : Spec.query) max_rows =
    let db = Experiments.make_db target wl ~sf in
    let timing = Qcomp_support.Timing.create () in
    let result, compile_s, cm, bname =
      if bname = "adaptive" then
        Engine.run_plan_adaptive db ~timing ~name:q.Spec.q_name q.Spec.q_plan
      else
        let backend = List.hd (backends_of_arg target bname) in
        let r, s, cm = Engine.run_plan db ~backend ~timing ~name:q.Spec.q_name q.Spec.q_plan in
        (r, s, cm, bname)
    in
    (* reclaim the query's code region when we are done *)
    Fun.protect
      ~finally:(fun () -> Engine.dispose_module db cm)
      (fun () ->
        Printf.printf "%s via %s: compiled %d fns (%d B) in %.3f ms; executed in %.3f ms (%d simulated cycles)\n"
          q.Spec.q_name bname
          (List.length cm.Qcomp_backend.Backend.cm_functions)
          cm.Qcomp_backend.Backend.cm_code_size (1000.0 *. compile_s)
          (1000.0 *. Engine.cycles_to_seconds result.Engine.exec_cycles)
          result.Engine.exec_cycles;
        Printf.printf "%d rows (checksum %Lx)\n" result.Engine.output_count
          (Engine.checksum result.Engine.rows);
        List.iteri
          (fun i row ->
            if i < max_rows then begin
              Array.iter (fun c -> Format.printf "%a | " Engine.pp_cell c) row;
              Format.printf "@."
            end)
          result.Engine.rows;
        if result.Engine.output_count > max_rows then
          Printf.printf "... (%d more rows)\n" (result.Engine.output_count - max_rows));
    Format.printf "%a" Qcomp_support.Timing.pp_report timing
  in
  let run wl sf target bname qname max_rows =
    let wl, target = resolve_common wl target in
    let queries = Experiments.queries_of wl in
    let q =
      if qname = "" then List.hd queries
      else
        match List.find_opt (fun (q : Spec.query) -> q.Spec.q_name = qname) queries with
        | Some q -> q
        | None -> fail "no query %s (have %s...)" qname (String.concat " " (List.filteri (fun i _ -> i < 6) (List.map (fun (q : Spec.query) -> q.Spec.q_name) queries))
      )
    in
    if bname = "all" then run_all wl sf target q else run_one wl sf target bname q max_rows
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute one query.")
    Term.(const run $ workload_arg $ sf_arg $ target_arg $ backend_arg $ query_arg $ max_rows_arg)

(* ---- bench ---- *)

let bench_cmd =
  let bench wl sf target bname =
    let wl, target = resolve_common wl target in
    let backends = backends_of_arg target bname in
    Printf.printf "%-12s %12s %12s %10s %10s\n" "back-end" "compile [s]" "exec [s]" "functions" "code [kB]";
    List.iter
      (fun b ->
        let r = Experiments.measure ~execute:true ~timing_enabled:false target wl ~sf b in
        let code =
          List.fold_left (fun a q -> a + q.Experiments.qr_code_size) 0 r.Experiments.wr_queries
        in
        Printf.printf "%-12s %12.3f %12.3f %10d %10.1f\n%!" (Qcomp_backend.Backend.name b)
          r.Experiments.wr_compile_s
          (Engine.cycles_to_seconds r.Experiments.wr_exec_cycles)
          r.Experiments.wr_functions
          (float_of_int code /. 1024.0))
      backends
  in
  Cmd.v (Cmd.info "bench" ~doc:"Compile and execute a whole workload per back-end.")
    Term.(const bench $ workload_arg $ sf_arg $ target_arg $ backend_arg)

(* ---- validate ---- *)

(* Serve every query twice (the second pass hits the code cache) through
   [mode] on a fresh database and name each served checksum that differs
   from the interpreter's, or the exception that stopped the run. *)
let serving_mismatches target wl ~sf ref_sums (mode, reopt) =
  let open Qcomp_server in
  let label = Server.mode_name mode ^ if reopt then "+reopt" else "" in
  let stream =
    List.concat_map
      (fun (q : Spec.query) -> [ (q.Spec.q_name, q.Spec.q_plan); (q.Spec.q_name, q.Spec.q_plan) ])
      (Experiments.queries_of wl)
  in
  match
    Server.run (Experiments.make_db target wl ~sf) { Server.default_config with Server.mode; reopt }
      stream
  with
  | report ->
      List.filter_map
        (fun (qm : Server.query_metrics) ->
          if Int64.equal qm.Report.qm_checksum (List.assoc qm.Report.qm_name ref_sums) then None
          else Some (label ^ "/" ^ qm.Report.qm_name))
        report.Report.r_queries
  | exception e -> [ label ^ " " ^ Printexc.to_string e ]

let validate_cmd =
  let validate wl sf target =
    let wl, target = resolve_common wl target in
    let backends =
      List.filter (fun b -> b != Engine.interpreter) (Engine.all_backends target)
    in
    let ref_sums, bad = Experiments.validate target wl ~sf backends in
    let bad =
      bad
      @ List.concat_map
          (serving_mismatches target wl ~sf ref_sums)
          Qcomp_server.Server.[ (Cached, false); (Tiered, false); (Tiered, true) ]
    in
    if bad = [] then print_endline "all back-ends and serving modes match the interpreter"
    else begin
      List.iter (fun q -> Printf.printf "MISMATCH %s\n" q) bad;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Differentially validate all back-ends and the serving modes against the interpreter.")
    Term.(const validate $ workload_arg $ sf_arg $ target_arg)

(* ---- dis ---- *)

let dis_cmd =
  let query_arg =
    Arg.(value & opt string "q06" & info [ "q"; "query" ] ~docv:"Q" ~doc:"Query name (e.g. q06, ds001).")
  in
  let fn_arg =
    Arg.(value & opt (some string) None & info [ "fn" ] ~docv:"F"
           ~doc:"Print only function F (default: every function of the module).")
  in
  let dis wl target bname query fn =
    let wl, target = resolve_common wl target in
    let backend = match backends_of_arg target bname with [ b ] -> b | _ -> fail "dis takes one back-end" in
    let checked f = try f () with Invalid_argument msg -> fail "%s" msg in
    if backend == Engine.interpreter then
      List.iter
        (fun bc -> Format.printf "%s:@.%a@?" bc.Qcomp_interp.Bytecode.fn_name Qcomp_interp.Bytecode.pp bc)
        (checked (Experiments.bytecode target wl ~query ?fn))
    else
      List.iter
        (fun (name, code) ->
          Format.printf "%s:@." name;
          List.iter
            (fun (off, i) -> Format.printf "  %6d  %a@." off (Qcomp_vm.Minst.pp target) i)
            code)
        (checked (Experiments.disassemble target wl backend ~query ?fn))
  in
  Cmd.v
    (Cmd.info "dis"
       ~doc:"Print the decoded machine code a back-end emits for one query, or the interpreter's bytecode.")
    Term.(const dis $ workload_arg $ target_arg $ backend_arg $ query_arg $ fn_arg)

let () =
  let doc = "query compilation with pluggable compiler back-ends" in
  exit (Cmd.eval (Cmd.group (Cmd.info "qcomp" ~doc) [ run_cmd; bench_cmd; validate_cmd; dis_cmd ]))
