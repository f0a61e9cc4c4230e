(* Randomized differential testing: generate small well-typed plans and
   demand that every compiling back-end produces exactly the interpreter's
   outcome — the same rows (order-sensitive checksum) or the same query
   error (overflow, division by zero). This is the property the whole
   system must uphold. *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

(* fixed schema: col0 int64, col1 int32 (small), col2 decimal(2), col3 str *)
let schema =
  Schema.make "t"
    [ ("a", Schema.Int64); ("g", Schema.Int32); ("d", Schema.Decimal 2);
      ("s", Schema.Str) ]

let make_db ?(target = Qcomp_vm.Target.x64) () =
  let db = Engine.create_db ~mem_size:(1 lsl 24) target in
  let _ =
    Engine.add_table db schema ~rows:64 ~seed:123L
      [| Datagen.Uniform (-50, 50); Datagen.Uniform (0, 5);
         Datagen.DecimalRange (-300, 300); Datagen.Words (Datagen.word_pool, 1) |]
  in
  db

(* ---- generators ---- *)

open QCheck2.Gen

(* numeric expressions over cols 0(i64), 1(i32), 2(dec2); kept shallow so
   most evaluations stay in range, while overflow still happens sometimes
   (trap parity is part of the property) *)
let gen_num =
  sized_size (int_bound 2) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            oneofl [ Expr.col 0; Expr.col 1; Expr.col 2 ];
            map Expr.int32 (int_range (-20) 20);
            map (fun v -> Expr.int64 (Int64.of_int v)) (int_range (-100) 100);
            map (fun v -> Expr.dec ~scale:2 v) (int_range (-500) 500);
          ]
      else
        oneof
          [
            map2 (fun a b -> Expr.(a +% b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Expr.(a -% b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Expr.(a *% b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Expr.(a /% b)) (self (n - 1)) (self (n - 1));
            map (fun a -> Expr.Neg a) (self (n - 1));
          ])

let gen_pred =
  let cmp =
    oneofl [ (fun a b -> Expr.(a <% b)); (fun a b -> Expr.(a <=% b));
             (fun a b -> Expr.(a =% b)); (fun a b -> Expr.(a >% b)) ]
  in
  let atom =
    oneof
      [
        map3 (fun f a b -> f a b) cmp gen_num gen_num;
        map (fun p -> Expr.Like (Expr.col 3, p)) (oneofl [ "%a%"; "a%"; "%o"; "%li%" ]);
      ]
  in
  oneof
    [
      atom;
      map2 (fun a b -> Expr.(a &&% b)) atom atom;
      map2 (fun a b -> Expr.(a ||% b)) atom atom;
      map (fun a -> Expr.Not a) atom;
    ]

let gen_agg =
  oneof
    [
      return Algebra.Count_star;
      map (fun e -> Algebra.Sum e) gen_num;
      map (fun e -> Algebra.Min e) gen_num;
      map (fun e -> Algebra.Max e) gen_num;
      map (fun e -> Algebra.Avg e) gen_num;
    ]

let scan = Algebra.Scan { table = "t"; filter = None }

let gen_plan =
  let base =
    oneof
      [
        return scan;
        map (fun p -> Algebra.Filter { input = scan; pred = p }) gen_pred;
        map (fun es -> Algebra.Project { input = scan; exprs = es })
          (list_size (int_range 1 3) gen_num);
      ]
  in
  oneof
    [
      base;
      map2
        (fun input aggs ->
          Algebra.Group_by { input; keys = [ Expr.col 1 ]; aggs })
        base
        (list_size (int_range 1 2) gen_agg);
      map2
        (fun input limit ->
          Algebra.Order_by
            { input; keys = [ (Expr.col 0, Algebra.Desc) ]; limit })
        base
        (oneofl [ None; Some 5 ]);
      map
        (fun keys ->
          Algebra.Hash_join
            {
              build = Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 2) };
              probe = scan;
              build_keys = [ keys ];
              probe_keys = [ keys ];
            })
        (oneofl [ Expr.col 0; Expr.col 1 ]);
      (* spread keys: values span millions, defeating the hash table's
         direct-address window so the tagged probe path is exercised *)
      map
        (fun pred ->
          Algebra.Hash_join
            {
              build = Algebra.Filter { input = scan; pred };
              probe = scan;
              build_keys = [ Expr.(col 0 *% int64 131071L) ];
              probe_keys = [ Expr.(col 0 *% int64 131071L) ];
            })
        gen_pred;
      (* multi-key join: combined hashes, duplicate chains per pair *)
      return
        (Algebra.Hash_join
           {
             build = Algebra.Filter { input = scan; pred = Expr.(col 0 >% int64 0L) };
             probe = scan;
             build_keys = [ Expr.col 0; Expr.col 1 ];
             probe_keys = [ Expr.col 0; Expr.col 1 ];
           });
    ]

(* ---- printers for counterexamples ---- *)

let rec expr_str (e : Expr.t) =
  match e with
  | Expr.Col i -> Printf.sprintf "c%d" i
  | Expr.Const_int (ty, v) -> Printf.sprintf "%Ld:%s" v (Sqlty.to_string ty)
  | Expr.Const_str s -> Printf.sprintf "%S" s
  | Expr.Add (a, b) -> Printf.sprintf "(%s + %s)" (expr_str a) (expr_str b)
  | Expr.Sub (a, b) -> Printf.sprintf "(%s - %s)" (expr_str a) (expr_str b)
  | Expr.Mul (a, b) -> Printf.sprintf "(%s * %s)" (expr_str a) (expr_str b)
  | Expr.Div (a, b) -> Printf.sprintf "(%s / %s)" (expr_str a) (expr_str b)
  | Expr.Neg a -> Printf.sprintf "(- %s)" (expr_str a)
  | Expr.Cmp (p, a, b) ->
      let ps = match p with Expr.Eq -> "=" | Expr.Ne -> "<>" | Expr.Lt -> "<"
        | Expr.Le -> "<=" | Expr.Gt -> ">" | Expr.Ge -> ">=" in
      Printf.sprintf "(%s %s %s)" (expr_str a) ps (expr_str b)
  | Expr.And (a, b) -> Printf.sprintf "(%s and %s)" (expr_str a) (expr_str b)
  | Expr.Or (a, b) -> Printf.sprintf "(%s or %s)" (expr_str a) (expr_str b)
  | Expr.Not a -> Printf.sprintf "(not %s)" (expr_str a)
  | Expr.Like (a, p) -> Printf.sprintf "(%s like %S)" (expr_str a) p
  | Expr.Between (v, lo, hi) ->
      Printf.sprintf "(%s between %s and %s)" (expr_str v) (expr_str lo) (expr_str hi)
  | Expr.Case (ws, e) ->
      Printf.sprintf "(case %s else %s)"
        (String.concat " " (List.map (fun (w, t) -> Printf.sprintf "when %s then %s" (expr_str w) (expr_str t)) ws))
        (expr_str e)
  | Expr.Cast (a, ty) -> Printf.sprintf "(cast %s %s)" (expr_str a) (Sqlty.to_string ty)
  | Expr.Param (ty, i) -> Printf.sprintf "$%d:%s" i (Sqlty.to_string ty)

let agg_str = function
  | Algebra.Count_star -> "count(*)"
  | Algebra.Sum e -> Printf.sprintf "sum(%s)" (expr_str e)
  | Algebra.Min e -> Printf.sprintf "min(%s)" (expr_str e)
  | Algebra.Max e -> Printf.sprintf "max(%s)" (expr_str e)
  | Algebra.Avg e -> Printf.sprintf "avg(%s)" (expr_str e)

let rec plan_str (p : Algebra.t) =
  match p with
  | Algebra.Scan { table; filter } ->
      Printf.sprintf "scan(%s%s)" table
        (match filter with None -> "" | Some f -> ", " ^ expr_str f)
  | Algebra.Filter { input; pred } ->
      Printf.sprintf "filter(%s, %s)" (plan_str input) (expr_str pred)
  | Algebra.Project { input; exprs } ->
      Printf.sprintf "project(%s, [%s])" (plan_str input)
        (String.concat "; " (List.map expr_str exprs))
  | Algebra.Hash_join { build; probe; build_keys; probe_keys } ->
      Printf.sprintf "join(build=%s on [%s], probe=%s on [%s])" (plan_str build)
        (String.concat ";" (List.map expr_str build_keys))
        (plan_str probe)
        (String.concat ";" (List.map expr_str probe_keys))
  | Algebra.Group_by { input; keys; aggs } ->
      Printf.sprintf "group(%s, keys=[%s], aggs=[%s])" (plan_str input)
        (String.concat ";" (List.map expr_str keys))
        (String.concat ";" (List.map agg_str aggs))
  | Algebra.Order_by { input; keys; limit } ->
      Printf.sprintf "order(%s, [%s]%s)" (plan_str input)
        (String.concat ";"
           (List.map (fun (e, o) -> expr_str e ^ (match o with Algebra.Asc -> " asc" | Algebra.Desc -> " desc")) keys))
        (match limit with None -> "" | Some n -> Printf.sprintf ", limit %d" n)
  | Algebra.Limit { input; n } -> Printf.sprintf "limit(%s, %d)" (plan_str input) n

(* ---- the property ---- *)

type outcome = Rows of int64 * int | Error of string

(* Run [plan] on [backend] and return its rows; the generated module must
   pass [Verify] before it runs, so IR that executes but breaks an
   invariant (say, a value defined in one CASE arm and used after it)
   fails here instead of giving back-end-dependent rows. *)
let run_rows ?target backend plan =
  let db = make_db ?target () in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  Engine.with_compiled db ~backend ~timing ~name:"fuzz" plan (fun cq cm _ ->
      Qcomp_ir.Verify.verify_module cq.Qcomp_codegen.Codegen.modul;
      Engine.execute db cq cm)

let run_outcome ?target backend plan =
  (* typing rejections must also agree, but those happen before the
     back-end runs; treat them as an Error outcome keyed on the message *)
  match run_rows ?target backend plan with
  | r -> Rows (Engine.checksum r.Engine.rows, r.Engine.output_count)
  | exception Qcomp_runtime.Rt_error.Query_error e -> Error e
  | exception Expr.Type_error e -> Error ("type: " ^ e)

let mk_test ?target ?(suffix = "") (bname, backend) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~print:plan_str
       ~name:(Printf.sprintf "random plans: %s = interpreter%s" bname suffix)
       gen_plan
       (fun plan ->
         let expect = run_outcome ?target Engine.interpreter plan in
         let got = run_outcome ?target backend plan in
         if expect <> got then
           QCheck2.Test.fail_reportf "outcomes differ: interp=%s %s=%s"
             (match expect with Rows (c, n) -> Printf.sprintf "rows(%Lx,%d)" c n | Error e -> "err:" ^ e)
             bname
             (match got with Rows (c, n) -> Printf.sprintf "rows(%Lx,%d)" c n | Error e -> "err:" ^ e)
         else true))

(* ---- shared aggregate states ---- *)

(* Group-by keeps one state per distinct aggregate: SUM(e) and AVG(e)
   share a sum, every COUNT and AVG one count. The interpreter runs the
   same generated code, so it cannot see a wrong sharing; the oracle here
   is each output column computed alone, in a group-by with that one
   aggregate, where nothing can be shared. The lists force the duplicates
   sharing depends on. *)
let gen_shared_aggs =
  let group =
    oneof
      [
        map (fun x -> [ Algebra.Sum x; Algebra.Avg x ]) gen_num;
        map (fun x -> [ Algebra.Avg x; Algebra.Avg x ]) gen_num;
        map (fun x -> [ Algebra.Min x; Algebra.Max x ]) gen_num;
        map (fun x -> [ Algebra.Avg x; Algebra.Count_star; Algebra.Sum x ]) gen_num;
        return [ Algebra.Count_star ];
      ]
  in
  map List.concat (list_size (int_range 2 3) group) >>= shuffle_l

(* group key -> row of [plan]'s result, or the query error *)
let rows_by_key backend plan =
  match run_rows backend plan with
  | r -> Ok (List.map (fun row -> (row.(0), row)) r.Engine.rows)
  | exception Qcomp_runtime.Rt_error.Query_error e -> Error e
  | exception Expr.Type_error e -> Error ("type: " ^ e)

let shared_state_test (bname, backend) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~print:(fun aggs -> String.concat "; " (List.map agg_str aggs))
       ~name:(Printf.sprintf "shared aggregate states: %s columns = each aggregate alone" bname)
       gen_shared_aggs
       (fun aggs ->
         let group aggs = Algebra.Group_by { input = scan; keys = [ Expr.col 1 ]; aggs } in
         let alone = List.map (fun a -> rows_by_key backend (group [ a ])) aggs in
         match rows_by_key backend (group aggs) with
         | Error e ->
             (* the query traps on the first row that traps any state *)
             List.exists Result.is_error alone
             || QCheck2.Test.fail_reportf "all together raised %s, each alone ran" e
         | Ok rows ->
             List.iteri
               (fun k a ->
                 match List.nth alone k with
                 | Error e -> QCheck2.Test.fail_reportf "%s alone raised %s" (agg_str a) e
                 | Ok single ->
                     if List.length single <> List.length rows then
                       QCheck2.Test.fail_reportf "%s alone: %d groups, together %d"
                         (agg_str a) (List.length single) (List.length rows);
                     List.iter
                       (fun (key, row) ->
                         if List.assoc_opt key single <> Some [| key; row.(k + 1) |] then
                           QCheck2.Test.fail_reportf "%s differs in group %s" (agg_str a)
                             (Format.asprintf "%a" Engine.pp_cell key))
                       rows)
               aggs;
             true))

(* ---- use counts ---- *)

(* [Func.count_uses] against counts derived from [Func.iter_operands], for
   every function of a lowered plan. The stencil back-end drops the slot
   store of a value it counts as used once, so an undercount would read a
   slot that was never written. Returns a description of the first
   disagreement. *)
let use_count_mismatch (m : Qcomp_ir.Func.modul) =
  let module F = Qcomp_ir.Func in
  let bad = ref None in
  Qcomp_support.Vec.iter
    (fun f ->
      let n = F.num_insts f in
      let expect = Array.make n 0 in
      let phi = ref false in
      for i = 0 to n - 1 do
        if F.op f i = Qcomp_ir.Op.Phi then phi := true;
        F.iter_operands f i (fun v -> expect.(v) <- expect.(v) + 1)
      done;
      (* stale counts from a previous function must not leak through *)
      let cnt = Array.make (n + 1) 9 in
      let has_phi = F.count_uses f cnt in
      if has_phi <> !phi && !bad = None then
        bad := Some (Printf.sprintf "%s: has_phi %b" f.F.name has_phi);
      for v = 0 to n - 1 do
        if cnt.(v + 1) <> expect.(v) && !bad = None then
          bad :=
            Some
              (Printf.sprintf "%s: value %d counted %d, has %d uses" f.F.name v
                 cnt.(v + 1) expect.(v))
      done)
    m.F.funcs;
  !bad

let use_count_fuzz_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~print:plan_str
       ~name:"random plans: Func.count_uses = iter_operands counts" gen_plan
       (fun plan ->
         match
           Engine.plan_to_ir (make_db ()) ~name:"fuzz" plan
         with
         | exception Expr.Type_error _ -> true
         | cq -> (
             match use_count_mismatch cq.Qcomp_codegen.Codegen.modul with
             | None -> true
             | Some e -> QCheck2.Test.fail_reportf "%s" e)))

let use_count_workloads_test =
  Alcotest.test_case
    "TPC-H, TPC-DS and literal-hole plans: Func.count_uses = iter_operands counts"
    `Quick (fun () ->
      let check_plans db plans =
        List.iter
          (fun (name, plan) ->
            let cq = Engine.plan_to_ir db ~name plan in
            match use_count_mismatch cq.Qcomp_codegen.Codegen.modul with
            | None -> ()
            | Some e -> Alcotest.failf "%s: %s" name e)
          plans
      in
      List.iter
        (fun wl ->
          let db =
            Experiments.make_db ~mem_size:(1 lsl 26) Qcomp_vm.Target.x64 wl ~sf:1
          in
          let queries = Experiments.queries_of wl in
          check_plans db
            (List.map
               (fun (q : Qcomp_workloads.Spec.query) ->
                 (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
               queries);
          if wl = Experiments.Tpch then
            (* normalized shapes lower their literals to [Param] holes *)
            check_plans db
              (List.map
                 (fun (tname, mk) -> (tname, fst (Paramize.normalize (mk 3))))
                 (Array.to_list Qcomp_workloads.Paramgen.templates)))
        [ Experiments.Tpch; Experiments.Tpcds ])

let suite =
  use_count_fuzz_test :: use_count_workloads_test
  :: shared_state_test ("interpreter", Engine.interpreter)
  :: shared_state_test ("directemit", Engine.directemit)
  :: List.map (fun b -> mk_test b) Test_backends.backends_x64
  @ List.map
      (fun b -> mk_test ~target:Qcomp_vm.Target.a64 ~suffix:" (a64)" b)
      Test_backends.backends_a64
