(* Adaptive back-end selection — the scenario behind the paper's Fig. 7.

   A query compiler can trade compile time against code quality: on small
   data a fast-compiling back-end wins end-to-end even though its code runs
   slower; on large data an optimizing back-end amortizes its compile time.
   This example runs the same analytical query against growing data sizes
   and picks, per size, the back-end minimizing compile + execution time,
   next to what Engine.adaptive_backend predicts before running anything:
   the rung of the tier ladder whose modelled compile seconds plus the
   prior's execution estimate (estimated work x interpreter cycles per
   unit, divided by the rate the pinned cycle tables give each back-end)
   is least.

     dune exec examples/adaptive.exe *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let backends =
  [
    ("directemit", Engine.directemit);
    ("cranelift", Engine.cranelift);
    ("llvm-cheap", Engine.llvm_cheap);
    ("llvm-opt", Engine.llvm_opt);
    ("gcc", Engine.gcc);
  ]

let make_db rows =
  (* size the VM to the data: allocating a fixed huge arena would put GC
     noise into the small-input compile-time measurements *)
  let mem_size = (16 * 1024 * 1024) + (rows * 96) in
  let db = Engine.create_db ~mem_size Qcomp_vm.Target.x64 in
  let sales =
    Schema.make "sales"
      [
        ("s_item", Schema.Int32);
        ("s_qty", Schema.Int32);
        ("s_price", Schema.Decimal 2);
        ("s_date", Schema.Date);
      ]
  in
  let _ =
    Engine.add_table db sales ~rows ~seed:7L
      [|
        Datagen.Zipf 1000;
        Datagen.Uniform (1, 10);
        Datagen.DecimalRange (50, 20000);
        Datagen.DateRange (0, 365);
      |]
  in
  db

(* revenue per item over a date window, top 10 *)
let plan =
  Algebra.Order_by
    {
      input =
        Algebra.Group_by
          {
            input =
              Algebra.Scan
                {
                  table = "sales";
                  filter = Some Expr.(Between (col 3, date 100, date 200));
                };
            keys = [ Expr.col 0 ];
            aggs = [ Algebra.Sum (Expr.(Cast (col 1, Sqlty.Decimal 0) *% col 2)) ];
          };
      keys = [ (Expr.col 1, Algebra.Desc) ];
      limit = Some 10;
    }

let () =
  (* warm up the OCaml heap and code paths so the first measured row is not
     dominated by one-time costs *)
  List.iter
    (fun (_, b) ->
      let db = make_db 100 in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      ignore (Engine.run_plan db ~backend:b ~timing ~name:"warmup" plan))
    backends;
  Printf.printf "%-10s" "rows";
  List.iter (fun (n, _) -> Printf.printf " %12s" n) backends;
  Printf.printf " %14s %12s\n" "best" "priced pick";
  List.iter
    (fun rows ->
      Printf.printf "%-10d" rows;
      let totals =
        List.map
          (fun (name, b) ->
            let db = make_db rows in
            let timing = Qcomp_support.Timing.create ~enabled:false () in
            let r, compile_s, _ = Engine.run_plan db ~backend:b ~timing ~name plan in
            let total = compile_s +. Engine.cycles_to_seconds r.Engine.exec_cycles in
            Printf.printf " %11.3fms" (1000.0 *. total);
            (name, total))
          backends
      in
      let best, _ =
        List.fold_left (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
          ("", infinity) totals
      in
      let pick =
        let db = make_db rows in
        let cq = Engine.plan_to_ir db ~name:"pick" plan in
        fst (Engine.adaptive_backend db plan cq.Qcomp_codegen.Codegen.modul)
      in
      Printf.printf " %14s %12s\n%!" best pick)
    [ 100; 1_000; 10_000; 100_000; 1_000_000 ];
  print_newline ();
  print_endline
    "Small inputs favour the single-pass/simple back-ends (compile time\n\
     dominates); the paper's optimizing back-ends take over as the data\n\
     grows. Here DirectEmit's code also runs fastest, so the priced pick\n\
     stays on DirectEmit; an optimizing rung becomes the pick again\n\
     once its pinned cycles beat DirectEmit's, with no retune."
