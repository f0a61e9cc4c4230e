(* Quickstart: create a database, load a table, and run one query through a
   compiling back-end.

     dune exec examples/quickstart.exe            # default: LLVM -O2
     dune exec examples/quickstart.exe -- gcc     # pick a back-end

   The engine runs on a deterministic virtual machine, so the output (and
   even the simulated cycle counts) are identical on every run. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let () =
  let backend_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "llvm-opt" in
  let backend =
    match Engine.backend_of_name Qcomp_vm.Target.x64 backend_name with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown back-end %s (%s)\n" backend_name
          (String.concat "|"
             (List.map Qcomp_backend.Backend.name
                (Engine.all_backends Qcomp_vm.Target.x64)));
        exit 1
  in

  (* 1. a database instance: an emulated x86-64 machine with its memory *)
  let db = Engine.create_db ~mem_size:(64 * 1024 * 1024) Qcomp_vm.Target.x64 in

  (* 2. a table and some deterministic synthetic data *)
  let orders =
    Schema.make "orders"
      [
        ("o_id", Schema.Int64);
        ("o_region", Schema.Int32);
        ("o_total", Schema.Decimal 2);
        ("o_comment", Schema.Str);
      ]
  in
  let _ =
    Engine.add_table db orders ~rows:10_000 ~seed:42L
      [|
        Datagen.Serial 1;
        Datagen.Uniform (0, 4);
        Datagen.DecimalRange (99, 99999);
        Datagen.Words (Datagen.word_pool, 3);
      |]
  in

  (* 3. a query plan:
        SELECT o_region, COUNT( * ), SUM(o_total), AVG(o_total)
        FROM orders WHERE o_total > 100.00
        GROUP BY o_region ORDER BY o_region *)
  let plan =
    Algebra.Order_by
      {
        input =
          Algebra.Group_by
            {
              input =
                Algebra.Scan
                  { table = "orders"; filter = Some Expr.(col 2 >% dec ~scale:2 10000) };
              keys = [ Expr.col 1 ];
              aggs =
                [ Algebra.Count_star; Algebra.Sum (Expr.col 2); Algebra.Avg (Expr.col 2) ];
            };
        keys = [ (Expr.col 0, Algebra.Asc) ];
        limit = None;
      }
  in

  (* 4. compile and execute *)
  let timing = Qcomp_support.Timing.create () in
  let result, compile_s, cm =
    Engine.run_plan db ~backend ~timing ~name:"quickstart" plan
  in

  Printf.printf "back-end: %s\n" backend_name;
  Printf.printf "compiled %d functions (%d bytes of code) in %.3f ms\n"
    (List.length cm.Qcomp_backend.Backend.cm_functions)
    cm.Qcomp_backend.Backend.cm_code_size (1000.0 *. compile_s);
  Printf.printf "executed in %d simulated cycles (%.3f ms at 2 GHz)\n\n"
    result.Engine.exec_cycles
    (1000.0 *. Engine.cycles_to_seconds result.Engine.exec_cycles);
  Printf.printf "%-8s %10s %14s %12s\n" "region" "count" "sum(total)" "avg(total)";
  List.iter
    (fun row ->
      Array.iteri
        (fun i c ->
          let s = Format.asprintf "%a" Engine.pp_cell c in
          match i with
          | 0 -> Printf.printf "%-8s " s
          | 1 -> Printf.printf "%10s " s
          | _ -> Printf.printf "%13s " s)
        row;
      print_newline ())
    result.Engine.rows
