(* DirectEmit code-generation rules on hand-built functions, and its
   liveness intervals against the dataflow oracle.

   Each rule case tries to break one rule of the emitter: fused compare
   branches, fall-through layout, block-entry register maps carried across
   edges and loop back edges, phi moves, parallel argument moves and the
   lazily written stack homes around calls. Each runs over a set of
   arguments against the interpreter and must execute fewer instructions
   than the emitter that dropped every register at every block edge and
   call (pinned below). *)

open Qcomp_engine
module Func = Qcomp_ir.Func
module Builder = Qcomp_ir.Builder
module Ty = Qcomp_ir.Ty
module Op = Qcomp_ir.Op
module Liveness = Qcomp_ir.Liveness
module Analysis = Qcomp_directemit.Analysis
module Spec = Qcomp_workloads.Spec

let i64 = Ty.I64

let new_fn () =
  let m = Func.create_module "m" in
  (m, Builder.create m ~name:"f" ~ret:i64 ~args:[| i64; i64 |])

(* every integer predicate, on 64-bit operands and on their low 32 bits,
   each fused into the branch that reads it: bit k of the result is
   predicate k. The accumulator flows through a phi on every edge. *)
let case_predicates () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let n0 = Builder.trunc b Ty.I32 a0 and n1 = Builder.trunc b Ty.I32 a1 in
  let preds =
    Op.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
  in
  let tests = List.map (fun p -> (p, a0, a1)) preds @ List.map (fun p -> (p, n0, n1)) preds in
  let acc = ref (Builder.const_i64 b 0L) in
  List.iteri
    (fun k (p, x, y) ->
      let from = Builder.current_block b in
      let t = Builder.new_block b and join = Builder.new_block b in
      Builder.condbr b (Builder.cmp b p x y) ~then_:t ~else_:join;
      Builder.switch_to b t;
      let set = Builder.or_ b i64 !acc (Builder.const_i64 b (Int64.shift_left 1L k)) in
      Builder.br b join;
      Builder.switch_to b join;
      acc := Builder.phi b i64 [ (from, !acc); (t, set) ])
    tests;
  Builder.ret b !acc;
  m

(* isnull and isnotnull fused into their branches *)
let case_null_tests () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let t1 = Builder.new_block b and e1 = Builder.new_block b in
  Builder.condbr b (Builder.isnull b a0) ~then_:t1 ~else_:e1;
  Builder.switch_to b t1;
  Builder.ret b (Builder.const_i64 b 1L);
  Builder.switch_to b e1;
  let t2 = Builder.new_block b and e2 = Builder.new_block b in
  Builder.condbr b (Builder.isnotnull b a1) ~then_:t2 ~else_:e2;
  Builder.switch_to b t2;
  Builder.ret b (Builder.const_i64 b 2L);
  Builder.switch_to b e2;
  Builder.ret b (Builder.const_i64 b 3L);
  m

(* a diamond (the else block is laid out next), a branch to a block and
   its join (then next), and a loop whose latch exits to a block that is
   not next. Returns the blocks too, so the test below can check the
   layout has that shape. *)
let layouts () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let t = Builder.new_block b and e = Builder.new_block b and join = Builder.new_block b in
  Builder.condbr b (Builder.cmp b Op.Slt a0 a1) ~then_:t ~else_:e;
  Builder.switch_to b t;
  let vt = Builder.sub b i64 a1 a0 in
  Builder.br b join;
  Builder.switch_to b e;
  let ve = Builder.sub b i64 a0 a1 in
  Builder.br b join;
  Builder.switch_to b join;
  let d = Builder.phi b i64 [ (t, vt); (e, ve) ] in
  (* then next: the else edge goes straight to the join *)
  let t2 = Builder.new_block b and join2 = Builder.new_block b in
  Builder.condbr b (Builder.cmp b Op.Ugt d (Builder.const_i64 b 100L)) ~then_:t2 ~else_:join2;
  Builder.switch_to b t2;
  let clipped = Builder.const_i64 b 100L in
  Builder.br b join2;
  Builder.switch_to b join2;
  let d2 = Builder.phi b i64 [ (join, d); (t2, clipped) ] in
  (* neither next: head exits to [out1], latch to [out2] or back *)
  let pre = Builder.current_block b in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and latch = Builder.new_block b in
  let out1 = Builder.new_block b and out2 = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i d2) ~then_:latch ~else_:out1;
  Builder.switch_to b latch;
  let i' = Builder.add b i64 i (Builder.const_i64 b 3L) in
  let low3 = Builder.and_ b i64 i' (Builder.const_i64 b 7L) in
  Builder.condbr b (Builder.cmp b Op.Eq low3 (Builder.const_i64 b 7L)) ~then_:out2 ~else_:head;
  Builder.add_phi_incoming b i ~block:pre ~value:zero;
  Builder.add_phi_incoming b i ~block:latch ~value:i';
  Builder.switch_to b out1;
  Builder.ret b (Builder.add b i64 i d2);
  Builder.switch_to b out2;
  Builder.ret b (Builder.sub b i64 i' d2);
  (m, (entry, t, e, join, t2, head, latch, out2))

let case_layouts () = fst (layouts ())

(* Fibonacci-like loop: the two loop-carried phis swap registers on every
   back edge, with no call in the loop, so both stay in registers *)
let case_phi_swap () =
  let m, b = new_fn () in
  let n = Builder.arg b 0 and k = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let zero = Builder.const_i64 b 0L and one = Builder.const_i64 b 1L in
  let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let x = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let y = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.and_ b i64 n (Builder.const_i64 b 255L)))
    ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let sum = Builder.add b i64 x y in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b x ~block:entry ~value:k;
  Builder.add_phi_incoming b x ~block:body ~value:y;
  Builder.add_phi_incoming b y ~block:entry ~value:one;
  Builder.add_phi_incoming b y ~block:body ~value:sum;
  Builder.switch_to b exit;
  Builder.ret b (Builder.xor b i64 x y);
  m

(* a loop-invariant product read after a loop that never uses it, and a
   counter phi that stays in its register around the back edge *)
let case_loop_carried () =
  let m, b = new_fn () in
  let n = Builder.arg b 0 and k = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let inv = Builder.mul b i64 n k in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Ult i (Builder.and_ b i64 n (Builder.const_i64 b 127L)))
    ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let acc' = Builder.xor b i64 (Builder.add b i64 acc i) k in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:zero;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b (Builder.sub b i64 acc inv);
  m

(* two values reach a merge: one path clobbers every register with a
   call, the other keeps them; the merge reads both values *)
let case_merge_states () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let v = Builder.add b i64 a0 a1 in
  let w = Builder.mul b i64 a0 a1 in
  let t = Builder.new_block b and e = Builder.new_block b and join = Builder.new_block b in
  Builder.condbr b (Builder.cmp b Op.Sgt a0 a1) ~then_:t ~else_:e;
  Builder.switch_to b t;
  let h =
    Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64 [ a1; a0 ]
  in
  Builder.br b join;
  Builder.switch_to b e;
  let z = Builder.sub b i64 w v in
  Builder.br b join;
  Builder.switch_to b join;
  let p = Builder.phi b i64 [ (t, h); (e, z) ] in
  Builder.ret b (Builder.xor b i64 (Builder.add b i64 p v) w);
  m

(* f(b, a): the arguments swap registers on the way into the call *)
let case_arg_cycle () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let d =
    Builder.call b ~name:"umbra_ssubOvf64" ~args_ty:[| i64; i64 |] ~ret:i64 [ a1; a0 ]
  in
  Builder.ret b (Builder.add b i64 d (Builder.mul b i64 a0 (Builder.const_i64 b 3L)));
  m

(* values live across runtime calls: one defined before a loop that calls
   on every iteration, the loop counter across each call, and one across
   the out-of-line helper of a 128-bit multiply whose operands do not fit
   in 64 bits *)
let case_live_across_call () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let v = Builder.sub b i64 a0 a1 in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.const_i64 b 5L)) ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let h = Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64 [ acc; i ] in
  let acc' = Builder.add b i64 h v in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:a1;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  let w = Builder.xor b i64 acc a0 in
  let shift = Builder.sext b Ty.I128 (Builder.const_i64 b 40L) in
  let low24 = Builder.and_ b i64 a0 (Builder.const_i64 b 0xFFFFFFL) in
  let big = Builder.shl b Ty.I128 (Builder.sext b Ty.I128 low24) shift in
  let small = Builder.sext b Ty.I128 (Builder.and_ b i64 a1 (Builder.const_i64 b 0xFFFFL)) in
  let prod = Builder.smultrap b Ty.I128 big small in
  let low = Builder.trunc b i64 (Builder.ashr b Ty.I128 prod shift) in
  Builder.ret b (Builder.add b i64 (Builder.add b i64 low w) v);
  m

(* a fused compare under full register pressure: [x] is live across a
   call, so it waits in its home; after the call more values than there
   are registers stay live past the branch, and [y], the last of them, is
   compared with [x]. Loading [x] must not take [y]'s register, which
   holds the only copy of [y]. *)
let case_pressure_compare () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let x = Builder.add b i64 a0 a1 in
  let h = Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64 [ a0; a1 ] in
  let ws =
    List.init 14 (fun k -> Builder.add b i64 h (Builder.const_i64 b (Int64.of_int (k + 1))))
  in
  (* the registers [h] and its last constant leave free are taken by
     values whose operands stay live, and [y] evicts a live value *)
  let w k = List.nth ws k in
  let ws = ws @ [ Builder.add b i64 (w 0) (w 1); Builder.add b i64 (w 2) (w 3) ] in
  let y = Builder.sub b i64 (w 4) (w 5) in
  let t = Builder.new_block b and e = Builder.new_block b in
  Builder.condbr b (Builder.cmp b Op.Slt x y) ~then_:t ~else_:e;
  let mix combine =
    Builder.ret b (List.fold_left (fun acc w -> combine acc w) (Builder.const_i64 b 0L) ws)
  in
  Builder.switch_to b t;
  mix (fun acc w -> Builder.add b i64 acc w);
  Builder.switch_to b e;
  mix (fun acc w -> Builder.xor b i64 acc w);
  m

(* signed and unsigned boundaries of both widths, and ordinary values *)
let arg_sets =
  let vals =
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x7FFFFFFFL; 0x80000000L; -0x80000000L;
      0xFFFFFFFFL; 5L; 7L; -3L ]
  in
  List.concat_map (fun a -> List.map (fun b -> [| a; b |]) vals) vals

(* argument sets for cases that add or multiply, away from overflow *)
let small_sets =
  [ [| 0L; 0L |]; [| 5L; 7L |]; [| 7L; 5L |]; [| -3L; 11L |]; [| 1000L; -1000L |];
    [| 300L; 2L |]; [| 12L; 12L |]; [| 0xABCDEFL; 0x1234L |] ]

(* (name, function, argument sets, instructions the emitter that dropped
   every register at block edges and calls executed over them) *)
let cases =
  [ ("integer predicates", case_predicates, arg_sets, 35136);
    ("isnull / isnotnull", case_null_tests, arg_sets, 2233);
    ("then-next, else-next, neither-next", case_layouts, small_sets, 810);
    ("phi swap on the back edge", case_phi_swap, small_sets, 24032);
    ("loop phi stays in a register", case_loop_carried, small_sets, 12088);
    ("merge reached with different registers", case_merge_states, small_sets, 284);
    ("call arguments in a register cycle", case_arg_cycle, small_sets, 136);
    ("values live across calls", case_live_across_call, small_sets, 1790);
    ("fused compare under full register pressure", case_pressure_compare, small_sets, 1064) ]

(* run [f] over [args] on [backend]: results and executed instructions *)
let run_case db backend mk args =
  let m = mk () in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let emu = db.Engine.emu in
  let cm =
    Qcomp_backend.Backend.compile_module backend ~timing ~emu ~registry:db.Engine.registry
      ~unwind:db.Engine.unwind m
  in
  let addr = Int64.to_int (Qcomp_backend.Backend.find_fn cm "f") in
  Qcomp_vm.Emu.reset_counters emu;
  let results = List.map (fun a -> fst (Qcomp_vm.Emu.call emu ~addr ~args:a)) args in
  let insts = Qcomp_vm.Emu.instructions_executed emu in
  Engine.dispose_module db cm;
  (results, insts)

let rule_tests =
  List.map
    (fun (name, mk, args, parent_insts) ->
      Alcotest.test_case ("rule: " ^ name) `Quick (fun () ->
          let db = Engine.create_db ~mem_size:(1 lsl 22) Qcomp_vm.Target.x64 in
          let expect, _ = run_case db Engine.interpreter mk args in
          let got, insts = run_case db Engine.directemit mk args in
          Alcotest.(check (list int64)) "results = interpreter" expect got;
          if insts >= parent_insts then
            Alcotest.failf "%d instructions executed, the block-local emitter took %d" insts
              parent_insts))
    cases

(* the layout case really lays out all three shapes *)
let layout_shape_test =
  Alcotest.test_case "layout: then-next, else-next and neither-next occur" `Quick (fun () ->
      let m, (entry, t, e, join, t2, head, latch, out2) = layouts () in
      let an = Analysis.compute (Qcomp_support.Vec.get m.Func.funcs 0) in
      let next blk =
        let k = an.Analysis.index.(blk) + 1 in
        if k < Array.length an.Analysis.order then an.Analysis.order.(k) else -1
      in
      Alcotest.(check bool) "diamond: a successor is next" true (next entry = e || next entry = t);
      Alcotest.(check int) "then-next after the first join" t2 (next join);
      Alcotest.(check bool) "latch: neither successor next" true
        (next latch <> head && next latch <> out2))

(* ---------------- liveness intervals against the dataflow oracle ---------------- *)

(* Every value live out of a block lies inside its interval at that
   block's layout index, and stays live to the block's end there; every
   value live into a block (its phis excluded) has an interval that
   starts before the block and reaches it. *)
let check_intervals (f : Func.t) =
  let an = Analysis.compute f in
  let lv = Liveness.compute f in
  Array.iteri
    (fun k blk ->
      let len = Qcomp_support.Vec.length (Func.block_insts f blk) in
      Qcomp_support.Bitset.iter
        (fun v ->
          let lo = an.Analysis.lo.(v) and hi = an.Analysis.hi.(v) in
          if not (lo <= k && k <= hi && (k < hi || an.Analysis.last_use.(v) >= len)) then
            Alcotest.failf "%s: %%%d live out of ^%d (layout %d), interval [%d, %d] last use %d"
              f.Func.name v blk k lo hi an.Analysis.last_use.(v))
        lv.Liveness.live_out.(blk);
      Qcomp_support.Bitset.iter
        (fun v ->
          let lo = an.Analysis.lo.(v) and hi = an.Analysis.hi.(v) in
          (* the oracle counts arguments read by the entry block as live
             into it *)
          let arg = k = 0 && v < Func.n_args f in
          if not (arg || (lo < k && k <= hi)) then
            Alcotest.failf "%s: %%%d live into ^%d (layout %d), interval [%d, %d]" f.Func.name v
              blk k lo hi)
        lv.Liveness.live_in.(blk))
    an.Analysis.order

let oracle_test wl label =
  Alcotest.test_case ("intervals cover Liveness on every " ^ label ^ " function") `Quick
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 wl ~sf:1 in
      let nf = ref 0 in
      List.iter
        (fun (q : Spec.query) ->
          let cq = Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan in
          Qcomp_support.Vec.iter
            (fun f ->
              incr nf;
              check_intervals f)
            cq.Qcomp_codegen.Codegen.modul.Func.funcs)
        (Experiments.queries_of wl);
      Alcotest.(check bool) "functions checked" true (!nf > 0))

let suite =
  rule_tests
  @ [ layout_shape_test;
      oracle_test Experiments.Tpch "TPC-H";
      oracle_test Experiments.Tpcds "TPC-DS-like" ]
