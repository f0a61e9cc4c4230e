(* Engine-level behaviour: catalog handling, result materialization,
   checksums, and the priced adaptive back-end choice. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let check = Alcotest.check

let db_with ?(target = Qcomp_vm.Target.x64) rows =
  let db = Engine.create_db ~mem_size:(max (1 lsl 24) (rows * 128)) target in
  let t = Schema.make "t" [ ("id", Schema.Int64); ("g", Schema.Int32) ] in
  let _ =
    Engine.add_table db t ~rows ~seed:5L
      [| Datagen.Serial 0; Datagen.Uniform (0, 9) |]
  in
  db

let scan = Algebra.Scan { table = "t"; filter = None }

let agg =
  Algebra.Group_by
    { input = scan; keys = [ Expr.col 1 ]; aggs = [ Algebra.Count_star ] }

(* the rung adaptive_backend prices cheapest for [plan] on [db] *)
let pick db plan =
  fst
    (Engine.adaptive_backend db plan
       (Engine.plan_to_ir db ~name:"q" plan).Qcomp_codegen.Codegen.modul)

let suite =
  [
    Alcotest.test_case "catalog registers tables" `Quick (fun () ->
        let db = db_with 10 in
        check Alcotest.int "rows" 10 (Table.rows (Engine.table db "t"));
        match Engine.table db "missing" with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "estimated work follows table size and joins" `Quick
      (fun () ->
        let db = db_with 1000 in
        check Alcotest.int "scan" 1000 (Engine.estimated_work db scan);
        let join =
          Algebra.Hash_join
            { build = scan; probe = scan; build_keys = [ Expr.col 1 ];
              probe_keys = [ Expr.col 1 ] }
        in
        check Alcotest.int "join sums" 2000 (Engine.estimated_work db join));
    (* a 50-row scan is worth a microsecond stencil copy on x64; on AArch64
       the cheapest compiled rung costs more than the interpreter's run *)
    Alcotest.test_case "priced pick for tiny data: stencil on x64, interpreter on a64"
      `Quick (fun () ->
        check Alcotest.string "x64" "stencil" (pick (db_with 50) scan);
        check Alcotest.string "a64" "interpreter"
          (pick (db_with ~target:Qcomp_vm.Target.a64 50) scan));
    Alcotest.test_case "adaptive picks directemit for small data on x64" `Quick
      (fun () -> check Alcotest.string "small" "directemit" (pick (db_with 10_000) scan));
    Alcotest.test_case "adaptive avoids directemit on a64" `Quick (fun () ->
        check Alcotest.string "a64" "cranelift"
          (pick (db_with ~target:Qcomp_vm.Target.a64 10_000) scan));
    (* DirectEmit has the highest pinned rate on x64 and compiles cheapest
       of the compiled rungs, so more data never buys a slower compile *)
    Alcotest.test_case "priced pick for big data stays on directemit" `Quick
      (fun () -> check Alcotest.string "big" "directemit" (pick (db_with 2_000_000) scan));
    Alcotest.test_case "run_plan_adaptive matches interpreter results" `Slow
      (fun () ->
        let timing = Qcomp_support.Timing.create ~enabled:false () in
        List.iter
          (fun rows ->
            let db = db_with rows in
            let r, _, _, _ = Engine.run_plan_adaptive db ~timing ~name:"q" agg in
            let db2 = db_with rows in
            let r2, _, _ =
              Engine.run_plan db2 ~backend:Engine.interpreter ~timing ~name:"q" agg
            in
            check Alcotest.int64
              (Printf.sprintf "checksum at %d rows" rows)
              (Engine.checksum r2.Engine.rows)
              (Engine.checksum r.Engine.rows))
          [ 50; 10_000; 150_000 ]);
    Alcotest.test_case "checksum is order-sensitive" `Quick (fun () ->
        let a = [ [| Engine.Int 1L |]; [| Engine.Int 2L |] ] in
        let b = [ [| Engine.Int 2L |]; [| Engine.Int 1L |] ] in
        check Alcotest.bool "different" true
          (not (Int64.equal (Engine.checksum a) (Engine.checksum b))));
    Alcotest.test_case "checksum covers strings and decimals" `Quick (fun () ->
        let a = [ [| Engine.Str "x"; Engine.Dec (Qcomp_support.I128.of_int 5, 2) |] ] in
        let b = [ [| Engine.Str "y"; Engine.Dec (Qcomp_support.I128.of_int 5, 2) |] ] in
        let c = [ [| Engine.Str "x"; Engine.Dec (Qcomp_support.I128.of_int 6, 2) |] ] in
        check Alcotest.bool "str matters" true
          (not (Int64.equal (Engine.checksum a) (Engine.checksum b)));
        check Alcotest.bool "dec matters" true
          (not (Int64.equal (Engine.checksum a) (Engine.checksum c))));
  ]
