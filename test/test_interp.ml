(* Interpreter back-end: end-to-end plan execution with known answers on
   hand-filled tables, and the bytecode translator's rules on hand-built
   functions. The interpreter is the oracle for the other back-ends, so
   its own results are pinned here: each translation case must match a
   result computed by hand and a native back-end's (DirectEmit on x64,
   Cranelift on AArch64). *)

open Qcomp_engine
open Qcomp_plan
open Qcomp_storage

let check = Alcotest.check

(* tiny db with hand-written contents *)
let make_db () =
  let db = Engine.create_db ~mem_size:(1 lsl 24) Qcomp_vm.Target.x64 in
  let schema =
    Schema.make "t"
      [ ("id", Schema.Int64); ("grp", Schema.Int32); ("amt", Schema.Decimal 2);
        ("tag", Schema.Str) ]
  in
  let mem = Engine.memory db in
  let table = Table.create mem schema ~rows:6 in
  let rows =
    [
      (1L, 0L, 150L, "apple");
      (2L, 1L, 250L, "banana");
      (3L, 0L, 350L, "cherry");
      (4L, 1L, 450L, "apple pie");
      (5L, 2L, 550L, "dragonfruit");
      (6L, 0L, (-50L), "elderberry");
    ]
  in
  List.iteri
    (fun r (id, g, amt, tag) ->
      Table.set_i64 mem table ~col:0 ~row:r id;
      Table.set_i64 mem table ~col:1 ~row:r g;
      Table.set_i64 mem table ~col:2 ~row:r amt;
      Table.set_str mem table ~col:3 ~row:r tag)
    rows;
  Engine.register_table db schema table;
  db

let run plan =
  let db = make_db () in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let r, _, _ = Engine.run_plan db ~backend:Engine.interpreter ~timing ~name:"q" plan in
  r.Engine.rows

let scan = Algebra.Scan { table = "t"; filter = None }

let int_cell = function Engine.Int v -> v | _ -> Alcotest.fail "expected int"

(* ---------------- translation rules on hand-built IR ---------------- *)

module Func = Qcomp_ir.Func
module Builder = Qcomp_ir.Builder
module Ty = Qcomp_ir.Ty
module Op = Qcomp_ir.Op
module Bytecode = Qcomp_interp.Bytecode
module Target = Qcomp_vm.Target
module Memory = Qcomp_vm.Memory

let i64 = Ty.I64

let new_fn () =
  let m = Func.create_module "m" in
  (m, Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |])

let translated ~params m =
  Bytecode.translate ~params ~extern_addr:(fun _ -> 0L) (Qcomp_support.Vec.get m.Func.funcs 0)

let count p (bc : Bytecode.fn) =
  Array.fold_left (fun n i -> if p i then n + 1 else n) 0 bc.Bytecode.code

(* [f] over [args] on [backend]: one result per argument vector *)
let call_f db backend ?(params = [||]) m args =
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let emu = db.Engine.emu in
  let cm =
    Qcomp_backend.Backend.compile_module backend ~params ~timing ~emu
      ~registry:db.Engine.registry ~unwind:db.Engine.unwind m
  in
  let addr = Int64.to_int (Qcomp_backend.Backend.find_fn cm "f") in
  (* a broken loop fails instead of hanging *)
  emu.Qcomp_vm.Emu.fuel <- 10_000_000;
  let r = List.map (fun a -> fst (Qcomp_vm.Emu.call emu ~addr ~args:a)) args in
  Engine.dispose_module db cm;
  r

(* A translation case: [mk ~hole] builds the module (with [hole] its
   parameter hole stays a hole, else it is the constant it binds to),
   [inputs] the argument vectors on a database (filling its memory if
   the function reads any), [expect] the hand-computed result of one
   vector, and [shape] checks the bytecode. The interpreter and
   DirectEmit bind the hole to [params]; Cranelift on AArch64 binds no
   holes and runs the constant. *)
type case = {
  c_name : string;
  mk : hole:bool -> Func.modul;
  params : int64 array;
  inputs : Engine.db -> int64 array list;
  expect : int64 array -> int64;
  shape : Bytecode.fn -> unit;
}

let case_test c =
  Alcotest.test_case ("translation: " ^ c.c_name) `Quick (fun () ->
      c.shape (translated ~params:c.params (c.mk ~hole:true));
      let params = Array.map (fun v -> Qcomp_backend.Artifact.Pv_int v) c.params in
      List.iter
        (fun (target, native, binds) ->
          let db = Engine.create_db ~mem_size:(1 lsl 22) target in
          let args = c.inputs db in
          let expect = List.map c.expect args in
          let interp = call_f db Engine.interpreter ~params (c.mk ~hole:true) args in
          let got =
            if binds then call_f db native ~params (c.mk ~hole:true) args
            else call_f db native (c.mk ~hole:false) args
          in
          let what = target.Target.name ^ " " ^ Qcomp_backend.Backend.name native in
          check Alcotest.(list int64) "interpreter = hand-computed" expect interp;
          check Alcotest.(list int64) (what ^ " = hand-computed") expect got)
        [ (Target.x64, Engine.directemit, true); (Target.a64, Engine.cranelift, false) ])

let pairs l _ = List.map (fun (a, b) -> [| a; b |]) l

(* the blocks of a counted loop, [for i = 0 to n - 1], whose header
   holds only phis and the compare-and-branch: [body] builds the body
   from [i] and returns the latch values of the other phis, which start
   at [inits]; the function returns [ret] of the exit values *)
let counted_loop b ~n ~inits ~body ~ret =
  let entry = Builder.current_block b in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and latch = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let phis = List.map (fun _ -> Builder.phi_placeholder b i64 ~max_incoming:2) inits in
  Builder.condbr b (Builder.cmp b Op.Slt i n) ~then_:latch ~else_:exit;
  Builder.switch_to b latch;
  let nexts = body i phis in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  List.iter2
    (fun phi (init, next) ->
      Builder.add_phi_incoming b phi ~block:entry ~value:init;
      Builder.add_phi_incoming b phi ~block:latch ~value:next)
    (i :: phis)
    ((zero, i') :: List.combine inits nexts);
  Builder.switch_to b exit;
  Builder.ret b (ret phis)

(* two phis that swap on every trip around a loop: the latch's parallel
   copy is a cycle, which only a scratch register can sequentialize.
   f(a, n) starts (x, y) = (a, 1000 - a) and returns x * 10000 + y after
   n swaps *)
let swap_case =
  {
    c_name = "two phis that swap every iteration";
    mk =
      (fun ~hole:_ ->
        let m, b = new_fn () in
        let a = Builder.arg b 0 and n = Builder.arg b 1 in
        let a' = Builder.sub b i64 (Builder.const_i64 b 1000L) a in
        counted_loop b ~n ~inits:[ a; a' ]
          ~body:(fun _ phis -> List.rev phis)
          ~ret:(function
            | [ x; y ] -> Builder.add b i64 (Builder.mul b i64 x (Builder.const_i64 b 10000L)) y
            | _ -> assert false);
        m);
    params = [||];
    inputs = pairs [ (3L, 0L); (3L, 1L); (3L, 2L); (7L, 5L); (-4L, 8L); (250L, 11L) ];
    expect =
      (fun a ->
        let x = a.(0) and y = Int64.sub 1000L a.(0) in
        let x, y = if Int64.rem a.(1) 2L = 0L then (x, y) else (y, x) in
        Int64.add (Int64.mul x 10000L) y);
    shape =
      (fun bc ->
        let scratch = bc.Bytecode.num_regs - 1 in
        check Alcotest.int "the cycle parks one value in the scratch" 1
          (count (function Bytecode.Move (d, _) -> d = scratch | _ -> false) bc));
  }

(* compares read only by their branch (one Cmpbr each) beside compares
   of the same kinds read by a select too (a Cmp and a Condbr each), on
   i32, i128 and a null test. A fused test sets bit k of the result, an
   unfused one bit k through its select and bit k+1 through its branch *)
let compare_case =
  {
    c_name = "a compare read only by its branch fuses, one also read by a select does not";
    mk =
      (fun ~hole:_ ->
        let m, b = new_fn () in
        let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
        let n0 = Builder.trunc b Ty.I32 a0 and n1 = Builder.trunc b Ty.I32 a1 in
        (* a * 2^64: the 128-bit compares decide on the high lanes *)
        let k = Builder.const128 b (Qcomp_support.I128.shift_left Qcomp_support.I128.one 64) in
        let w0 = Builder.mul b Ty.I128 (Builder.sext b Ty.I128 a0) k in
        let w1 = Builder.mul b Ty.I128 (Builder.sext b Ty.I128 a1) k in
        let bit k = Builder.const_i64 b (Int64.shift_left 1L k) in
        let acc = ref (Builder.const_i64 b 0L) in
        let branch c k =
          let from = Builder.current_block b in
          let t = Builder.new_block b and join = Builder.new_block b in
          Builder.condbr b c ~then_:t ~else_:join;
          Builder.switch_to b t;
          let set = Builder.or_ b i64 !acc (bit k) in
          Builder.br b join;
          Builder.switch_to b join;
          acc := Builder.phi b i64 [ (from, !acc); (t, set) ]
        in
        let unfused c k =
          acc := Builder.or_ b i64 !acc (Builder.select b i64 c (bit k) (Builder.const_i64 b 0L));
          branch c (k + 1)
        in
        branch (Builder.cmp b Op.Slt n0 n1) 0;
        unfused (Builder.cmp b Op.Sgt n0 n1) 1;
        branch (Builder.cmp b Op.Slt w0 w1) 3;
        unfused (Builder.cmp b Op.Ult w0 w1) 4;
        branch (Builder.isnull b n0) 6;
        unfused (Builder.isnotnull b a1) 7;
        Builder.ret b !acc;
        m);
    params = [||];
    inputs =
      pairs
        [ (3L, 5L); (5L, 3L); (5L, 5L); (-1L, 1L); (1L, -1L); (0L, 7L); (7L, 0L);
          (0x1_0000_0000L, 2L); (Int64.min_int, Int64.max_int); (0L, 0L) ];
    expect =
      (fun a ->
        let n v = Int64.of_int32 (Int64.to_int32 v) in
        let gt = n a.(0) > n a.(1) and ult = Int64.unsigned_compare a.(0) a.(1) < 0 in
        List.fold_left
          (fun acc (k, set) -> if set then Int64.logor acc (Int64.shift_left 1L k) else acc)
          0L
          [ (0, n a.(0) < n a.(1)); (1, gt); (2, gt); (3, a.(0) < a.(1)); (4, ult); (5, ult);
            (6, n a.(0) = 0L); (7, a.(1) <> 0L); (8, a.(1) <> 0L) ]);
    shape =
      (fun bc ->
        (* a jump to a fused test becomes a copy of it: count each once *)
        let fused =
          List.filter (function Bytecode.Cmpbr _ -> true | _ -> false) (Array.to_list bc.Bytecode.code)
        in
        check Alcotest.int "fused compare-branches" 3 (List.length (List.sort_uniq compare fused));
        check Alcotest.int "compares that stay" 3
          (count (function Bytecode.Cmp _ -> true | _ -> false) bc);
        check Alcotest.int "plain branches" 3
          (count (function Bytecode.Condbr _ -> true | _ -> false) bc));
  }

(* f(base, i): a GEP read by two loads stays a Gep (and two Loads); one
   read by a single i128 load fuses into a Loadx. The i128 value is
   stored back and its high half reloaded, so both lanes count:
   f = l1 + 3 l2 + 5 lo + 7 hi *)
let word k = Int64.of_int ((k * k * 37) + 11)
let wide_lo k = Int64.of_int ((k * 1001) - 3)
let wide_hi k = Int64.of_int ((k * 13) - 20)

let gep_case =
  {
    c_name = "a GEP read by two loads stays, one read by a single i128 load fuses";
    mk =
      (fun ~hole:_ ->
        let m, b = new_fn () in
        let base = Builder.arg b 0 and i = Builder.arg b 1 in
        let g1 = Builder.gep b base ~index:i ~scale:8 8 in
        let l1 = Builder.load b i64 g1 ~offset:0 and l2 = Builder.load b i64 g1 ~offset:8 in
        let g2 = Builder.gep b base ~index:i ~scale:16 64 in
        let l3 = Builder.load b Ty.I128 g2 ~offset:0 in
        ignore (Builder.store b l3 base ~offset:512);
        let hi = Builder.load b i64 base ~offset:520 and lo = Builder.trunc b i64 l3 in
        let times v k = Builder.mul b i64 v (Builder.const_i64 b k) in
        Builder.ret b
          (Builder.add b i64
             (Builder.add b i64 l1 (times l2 3L))
             (Builder.add b i64 (times lo 5L) (times hi 7L)));
        m);
    params = [||];
    inputs =
      (fun db ->
        let mem = Qcomp_vm.Emu.memory db.Engine.emu in
        let base = Memory.alloc mem 1024 in
        for k = 0 to 7 do
          Memory.store64 mem (base + 8 + (8 * k)) (word k)
        done;
        for k = 0 to 3 do
          Memory.store64 mem (base + 64 + (16 * k)) (wide_lo k);
          Memory.store64 mem (base + 72 + (16 * k)) (wide_hi k)
        done;
        List.map (fun i -> [| Int64.of_int base; Int64.of_int i |]) [ 0; 1; 2; 3 ]);
    expect =
      (fun a ->
        let i = Int64.to_int a.(1) in
        Int64.(
          add (add (word i) (mul (word (i + 1)) 3L)) (add (mul (wide_lo i) 5L) (mul (wide_hi i) 7L))));
    shape =
      (fun bc ->
        check Alcotest.int "the i128 load is indexed" 1
          (count (function Bytecode.Loadx (Ty.I128, _, 0, 1, 16, 64) -> true | _ -> false) bc);
        check Alcotest.int "no other indexed load" 1
          (count (function Bytecode.Loadx _ -> true | _ -> false) bc);
        check Alcotest.int "the shared GEP stays" 1
          (count (function Bytecode.Gep _ -> true | _ -> false) bc));
  }

(* a loop whose header is only a compare-and-branch: the latch's jump
   becomes a copy of that branch, so no jump is left.
   f(n, k) = sum over i < n of (i xor k) *)
let header_case =
  {
    c_name = "a loop whose header is only a compare-and-branch tests at the latch";
    mk =
      (fun ~hole:_ ->
        let m, b = new_fn () in
        let n = Builder.arg b 0 and k = Builder.arg b 1 in
        counted_loop b ~n ~inits:[ Builder.const_i64 b 0L ]
          ~body:(fun i phis -> List.map (fun s -> Builder.add b i64 s (Builder.xor b i64 i k)) phis)
          ~ret:List.hd;
        m);
    params = [||];
    inputs = pairs [ (0L, 5L); (1L, 5L); (4L, 0L); (10L, 6L); (37L, 1023L) ];
    expect =
      (fun a ->
        let s = ref 0L in
        for i = 0 to Int64.to_int a.(0) - 1 do
          s := Int64.add !s (Int64.logxor (Int64.of_int i) a.(1))
        done;
        !s);
    shape =
      (fun bc ->
        check Alcotest.int "no jump left" 0
          (count (function Bytecode.Jmp _ -> true | _ -> false) bc);
        check Alcotest.int "the header test, and its copy at the latch" 2
          (count (function Bytecode.Cmpbr _ -> true | _ -> false) bc));
  }

(* a constant and a bound parameter hole read on every trip around a
   loop, both from the constant pool.
   f(n, a) = sum over i < n of (7 i + p + a), p = 1_000_003 *)
let hole_value = 1_000_003L

let pool_case =
  {
    c_name = "a constant and a bound parameter hole inside a loop";
    mk =
      (fun ~hole ->
        let m, b = new_fn () in
        if hole then m.Func.param_sig <- [| i64 |];
        let n = Builder.arg b 0 and a = Builder.arg b 1 in
        counted_loop b ~n ~inits:[ Builder.const_i64 b 0L ]
          ~body:(fun i phis ->
            let seven = Builder.const_i64 b 7L in
            let p = if hole then Builder.param b i64 0 else Builder.const_i64 b hole_value in
            let term = Builder.add b i64 (Builder.add b i64 (Builder.mul b i64 i seven) p) a in
            List.map (fun s -> Builder.add b i64 s term) phis)
          ~ret:List.hd;
        m);
    params = [| hole_value |];
    inputs = pairs [ (0L, 9L); (1L, 9L); (5L, -2L); (20L, 100L) ];
    expect =
      (fun a ->
        let s = ref 0L in
        for i = 0 to Int64.to_int a.(0) - 1 do
          s := Int64.(add !s (add (add (mul (of_int i) 7L) hole_value) a.(1)))
        done;
        !s);
    shape =
      (fun bc ->
        check Alcotest.(list int64) "the pool: 0 (sum), 0 (i), 7, the bound hole, 1"
          [ 0L; 0L; 7L; hole_value; 1L ]
          (Array.to_list (Array.map (fun (_, lo, _) -> lo) bc.Bytecode.consts)));
  }

(* TPC-H q06's scan: its constants in the pool, its loop test and its
   column reads fused *)
let q06_shape_test =
  Alcotest.test_case "translation: q06's scan has no constant op, a Cmpbr and a Loadx" `Quick
    (fun () ->
      let fns = Experiments.bytecode Target.x64 Experiments.Tpch ~query:"q06" () in
      match List.filter (fun bc -> String.ends_with ~suffix:"_scan" bc.Bytecode.fn_name) fns with
      | [ bc ] ->
          if Array.length bc.Bytecode.consts = 0 then Alcotest.fail "empty constant pool";
          (* a listing line is [pc  op operands]; a pool line starts "pool" *)
          List.iter
            (fun line ->
              match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
              | _ :: op :: _ when String.starts_with ~prefix:"const" op ->
                  Alcotest.failf "constant op in q06's scan: %s" line
              | _ -> ())
            (String.split_on_char '\n' (Format.asprintf "%a" Bytecode.pp bc));
          if count (function Bytecode.Cmpbr _ -> true | _ -> false) bc = 0 then
            Alcotest.fail "no fused compare-branch";
          if count (function Bytecode.Loadx _ -> true | _ -> false) bc = 0 then
            Alcotest.fail "no fused indexed load"
      | _ -> Alcotest.fail "no single scan function")

let translation_tests =
  List.map case_test [ swap_case; compare_case; gep_case; header_case; pool_case ]
  @ [ q06_shape_test ]

let suite =
  [
    Alcotest.test_case "full scan returns all rows in order" `Quick (fun () ->
        let rows = run scan in
        check Alcotest.int "6 rows" 6 (List.length rows);
        check Alcotest.(list int64) "ids" [ 1L; 2L; 3L; 4L; 5L; 6L ]
          (List.map (fun r -> int_cell r.(0)) rows));
    Alcotest.test_case "filter on int32" `Quick (fun () ->
        let rows = run (Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 0) }) in
        check Alcotest.(list int64) "grp 0" [ 1L; 3L; 6L ]
          (List.map (fun r -> int_cell r.(0)) rows));
    Alcotest.test_case "filter on decimal comparison" `Quick (fun () ->
        let rows =
          run (Algebra.Filter { input = scan; pred = Expr.(col 2 >% dec ~scale:2 300) })
        in
        check Alcotest.int "3 rows" 3 (List.length rows));
    Alcotest.test_case "projection arithmetic incl. negative decimals" `Quick
      (fun () ->
        let rows =
          run (Algebra.Project { input = scan; exprs = Expr.[ col 2 +% col 2 ] })
        in
        let vals =
          List.map
            (fun r -> match r.(0) with Engine.Dec (v, 2) -> Qcomp_support.I128.to_int64 v | _ -> Alcotest.fail "dec")
            rows
        in
        check Alcotest.(list int64) "doubled" [ 300L; 500L; 700L; 900L; 1100L; -100L ] vals);
    Alcotest.test_case "like predicate" `Quick (fun () ->
        let rows =
          run (Algebra.Filter { input = scan; pred = Expr.Like (Expr.col 3, "%apple%") })
        in
        check Alcotest.(list int64) "apples" [ 1L; 4L ]
          (List.map (fun r -> int_cell r.(0)) rows));
    Alcotest.test_case "group by with count/sum/min/max" `Quick (fun () ->
        let rows =
          run
            (Algebra.Order_by
               {
                 input =
                   Algebra.Group_by
                     {
                       input = scan;
                       keys = [ Expr.col 1 ];
                       aggs =
                         [ Algebra.Count_star; Algebra.Sum (Expr.col 2);
                           Algebra.Min (Expr.col 0); Algebra.Max (Expr.col 0) ];
                     };
                 keys = [ (Expr.col 0, Algebra.Asc) ];
                 limit = None;
               })
        in
        check Alcotest.int "3 groups" 3 (List.length rows);
        let g0 = List.hd rows in
        check Alcotest.int64 "count g0" 3L (int_cell g0.(1));
        (match g0.(2) with
        | Engine.Dec (v, 2) ->
            check Alcotest.int64 "sum g0 = 150+350-50" 450L (Qcomp_support.I128.to_int64 v)
        | _ -> Alcotest.fail "dec");
        check Alcotest.int64 "min id" 1L (int_cell g0.(3));
        check Alcotest.int64 "max id" 6L (int_cell g0.(4)));
    Alcotest.test_case "avg divides with 128-bit precision" `Quick (fun () ->
        let rows =
          run
            (Algebra.Group_by
               { input = Algebra.Filter { input = scan; pred = Expr.(col 1 =% int32 1) };
                 keys = []; aggs = [ Algebra.Avg (Expr.col 2) ] })
        in
        match (List.hd rows).(0) with
        | Engine.Dec (v, _) ->
            check Alcotest.int64 "avg(250,450)" 350L (Qcomp_support.I128.to_int64 v)
        | _ -> Alcotest.fail "dec");
    Alcotest.test_case "order by desc with limit" `Quick (fun () ->
        let rows =
          run
            (Algebra.Order_by
               { input = scan; keys = [ (Expr.col 2, Algebra.Desc) ]; limit = Some 2 })
        in
        check Alcotest.(list int64) "top2 by amt" [ 5L; 4L ]
          (List.map (fun r -> int_cell r.(0)) rows));
    Alcotest.test_case "hash join matches fk" `Quick (fun () ->
        (* join t with itself on grp = grp of filtered dim rows *)
        let build = Algebra.Filter { input = scan; pred = Expr.(col 0 =% int64 2L) } in
        let rows =
          run
            (Algebra.Hash_join
               { build; probe = scan; build_keys = [ Expr.col 1 ];
                 probe_keys = [ Expr.col 1 ] })
        in
        (* build side has one row (grp 1); probe rows with grp 1: ids 2,4 *)
        check Alcotest.(list int64) "joined probe ids" [ 2L; 4L ]
          (List.sort compare (List.map (fun r -> int_cell r.(0)) rows)));
    Alcotest.test_case "case expression" `Quick (fun () ->
        let rows =
          run
            (Algebra.Project
               {
                 input = scan;
                 exprs =
                   [
                     Expr.Case
                       ( [ (Expr.(col 1 =% int32 0), Expr.int32 100) ],
                         Expr.int32 0 );
                   ];
               })
        in
        check Alcotest.(list int64) "flags" [ 100L; 0L; 100L; 0L; 0L; 100L ]
          (List.map (fun r -> int_cell r.(0)) rows));
    Alcotest.test_case "overflow traps surface as Query_error" `Quick (fun () ->
        let big = Expr.int64 Int64.max_int in
        match run (Algebra.Project { input = scan; exprs = Expr.[ big +% col 0 ] }) with
        | exception Qcomp_runtime.Rt_error.Query_error _ -> ()
        | _ -> Alcotest.fail "expected overflow");
    Alcotest.test_case "division by zero traps" `Quick (fun () ->
        match
          run
            (Algebra.Project
               { input = scan; exprs = Expr.[ col 0 /% (col 1 -% col 1) ] })
        with
        | exception Qcomp_runtime.Rt_error.Query_error _ -> ()
        | _ -> Alcotest.fail "expected division error");
    Alcotest.test_case "empty result set" `Quick (fun () ->
        let rows =
          run (Algebra.Filter { input = scan; pred = Expr.(col 0 >% int64 100L) })
        in
        check Alcotest.int "none" 0 (List.length rows));
    Alcotest.test_case "checksum stable across runs" `Quick (fun () ->
        let c1 = Engine.checksum (run scan) in
        let c2 = Engine.checksum (run scan) in
        check Alcotest.int64 "deterministic" c1 c2);
  ]
  @ translation_tests
