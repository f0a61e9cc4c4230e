(* Where does compile time go? — the question behind the paper's Table I
   and Figures 2-5.

   Compiles a star-join dashboard workload (no execution) with every
   back-end and prints each one's hierarchical phase report, i.e. what GCC's
   -ftime-report, LLVM's -time-passes and Cranelift's compilation metrics
   would show, plus the back-ends' internal counters (FastISel fallback
   reasons, register-allocator B-tree traffic, spill counts, GOT slots).

     dune exec examples/compile_report.exe            # x86-64
     dune exec examples/compile_report.exe -- a64     # AArch64 *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let target () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "a64" then Qcomp_vm.Target.a64
  else Qcomp_vm.Target.x64

let make_db target =
  let db = Engine.create_db ~mem_size:(64 * 1024 * 1024) target in
  let fact =
    Schema.make "fact"
      [ ("f_d1", Schema.Int32); ("f_d2", Schema.Int32); ("f_val", Schema.Decimal 2) ]
  in
  let dim n =
    Schema.make n [ ("k", Schema.Int32); ("name", Schema.Str); ("cat", Schema.Int32) ]
  in
  let _ =
    Engine.add_table db fact ~rows:1000 ~seed:1L
      [| Datagen.Fk 50; Datagen.Fk 50; Datagen.DecimalRange (0, 9999) |]
  in
  List.iter
    (fun n ->
      ignore
        (Engine.add_table db (dim n) ~rows:50 ~seed:2L
           [| Datagen.Serial 0; Datagen.Words (Datagen.word_pool, 1); Datagen.Uniform (0, 5) |]))
    [ "dim1"; "dim2" ];
  db

(* two-dimension star join with aggregation: the typical generated-code mix
   of hashing, probing, arithmetic and string columns *)
let plan =
  let scan t = Algebra.Scan { table = t; filter = None } in
  Algebra.Group_by
    {
      input =
        Algebra.Hash_join
          {
            build = scan "dim2";
            probe =
              Algebra.Hash_join
                {
                  build = scan "dim1";
                  probe = scan "fact";
                  build_keys = [ Expr.col 0 ];
                  probe_keys = [ Expr.col 0 ];
                };
            build_keys = [ Expr.col 0 ];
            probe_keys = [ Expr.col 1 ];
          };
      keys = [ Expr.col 5 (* dim1.cat *) ];
      aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 2) ];
    }

let () =
  let target = target () in
  Printf.printf "target: %s\n" target.Qcomp_vm.Target.name;
  List.iter
    (fun backend ->
      let name = Qcomp_backend.Backend.name backend in
      let db = make_db target in
      let cq = Engine.plan_to_ir db ~name:"report" plan in
      let timing = Qcomp_support.Timing.create () in
      let cm =
        Qcomp_backend.Backend.compile_module backend ~timing ~emu:db.Engine.emu
          ~registry:db.Engine.registry ~unwind:db.Engine.unwind
          cq.Qcomp_codegen.Codegen.modul
      in
      Printf.printf "\n=== %s: %d functions, %d bytes ===\n" name
        (List.length cm.Qcomp_backend.Backend.cm_functions)
        cm.Qcomp_backend.Backend.cm_code_size;
      Format.printf "%a" Qcomp_support.Timing.pp_report timing;
      List.iter
        (fun (k, v) -> Printf.printf "counter %-30s %d\n" k v)
        cm.Qcomp_backend.Backend.cm_stats)
    (Engine.all_backends target)
