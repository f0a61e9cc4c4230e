(* DirectEmit code-generation rules on hand-built functions, and its
   liveness intervals against the dataflow oracle.

   Each rule case tries to break one rule of the emitter: fused compare
   branches, fall-through layout, block-entry register maps carried across
   edges and loop back edges, phi moves, parallel argument moves and the
   lazily written stack homes around calls. Each runs over a set of
   arguments against the interpreter and must execute fewer instructions
   than the emitter that dropped every register at every block edge and
   call (pinned below).

   The string intrinsics (inline short-string equality and hash) run the
   same way over SSO structs, against the runtime's own functions and the
   interpreter, and must take fewer cycles than the runtime call they
   replace: the runtime's work executes no emulated instruction, so only
   cycles, which it is charged in, compare the two. *)

open Qcomp_engine
module Func = Qcomp_ir.Func
module Builder = Qcomp_ir.Builder
module Ty = Qcomp_ir.Ty
module Op = Qcomp_ir.Op
module Liveness = Qcomp_ir.Liveness
module Analysis = Qcomp_directemit.Analysis
module Spec = Qcomp_workloads.Spec
module Sso = Qcomp_runtime.Sso
module Memory = Qcomp_vm.Memory

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

(* x + x on one register: once while x stays live, once as x dies, in
   64 and 128 bits (both lanes of the 128-bit sum are read) *)
let case_double () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let t = Builder.add b i64 a0 a0 in
  let u = Builder.add b i64 t t in
  let w = Builder.sext b Ty.I128 a1 in
  let w2 = Builder.add b Ty.I128 w w in
  let w3 = Builder.add b Ty.I128 w2 w2 in
  let w4 = Builder.xor b Ty.I128 w3 w in
  let hi = Builder.trunc b i64 (Builder.ashr b Ty.I128 w4 (Builder.const b Ty.I128 64L)) in
  let lo = Builder.trunc b i64 w4 in
  Builder.ret b (Builder.add b i64 (Builder.xor b i64 u a0) (Builder.sub b i64 hi lo));
  m

(* operands that outlive the op reading them keep their registers: [i]
   is read again by its increment, [v] after the loop, [acc] by the
   subtraction after the xor; the result must not take their registers *)
let case_live_operands () =
  let m, b = new_fn () in
  let n = Builder.arg b 0 and k = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let v = Builder.sub b i64 n k in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.and_ b i64 n (Builder.const_i64 b 31L)))
    ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let t = Builder.add b i64 i v in
  let x = Builder.xor b i64 acc t in
  let acc' = Builder.sub b i64 x acc in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:k;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b (Builder.add b i64 (Builder.xor b i64 acc i) v);
  m

(* the imm32 bounds: 0x7fffffff and -0x80000000 fold into the ALU op
   and the compare, 0x80000000 and 1 lsl 40 are materialised *)
let fold_bounds = [ 0x7FFFFFFFL; -0x80000000L ]
let wide_bounds = [ 0x80000000L; Int64.shift_left 1L 40 ]

let case_imm_bounds () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let c k = Builder.const_i64 b k in
  let s1 = Builder.add b i64 a0 (c 0x7FFFFFFFL) in
  let s2 = Builder.xor b i64 a1 (c (-0x80000000L)) in
  let s3 = Builder.and_ b i64 a0 (c 0x80000000L) in
  let s4 = Builder.or_ b i64 a1 (c (Int64.shift_left 1L 40)) in
  let lt = Builder.cmp b Op.Slt a0 (c 0x7FFFFFFFL) in
  let ge = Builder.cmp b Op.Sge (c (-0x80000000L)) a1 in
  let flags =
    Builder.add b i64 (Builder.sext b i64 lt) (Builder.shl b i64 (Builder.sext b i64 ge) (c 1L))
  in
  let sum = Builder.add b i64 (Builder.sub b i64 s3 s4) flags in
  Builder.ret b (Builder.add b i64 (Builder.xor b i64 s1 s2) sum);
  m

(* 8-, 16- and 32-bit results of immediate ops wrap and stay
   sign-extended: each feeds a 64-bit sum through a sign extension *)
let case_narrow_imm () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let narrow ty x = Builder.trunc b ty x in
  let x8 = narrow Ty.I8 a0 and x16 = narrow Ty.I16 a1 and x32 = narrow Ty.I32 a0 in
  let k ty v = Builder.const b ty v in
  let r8 = Builder.mul b Ty.I8 (Builder.add b Ty.I8 x8 (k Ty.I8 100L)) (k Ty.I8 3L) in
  let r16 = Builder.sub b Ty.I16 (Builder.xor b Ty.I16 x16 (k Ty.I16 (-21846L))) (k Ty.I16 30000L) in
  let r32 = Builder.shl b Ty.I32 (Builder.add b Ty.I32 x32 (k Ty.I32 0x7FFFFFFFL)) (k Ty.I32 3L) in
  let wide x = Builder.sext b i64 x in
  let sum = Builder.add b i64 (wide r8) (wide r16) in
  Builder.ret b (Builder.add b i64 sum (Builder.mul b i64 (wide r32) (k i64 7L)));
  m

(* [v], defined before a loop that calls out on every iteration, is read
   after each call and after the loop, and the counter after each call *)
let case_call_loop () =
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
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.const_i64 b 6L)) ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let h = Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64 [ acc; i ] in
  let acc' = Builder.add b i64 h (Builder.xor b i64 v i) in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:a1;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b (Builder.xor b i64 acc v);
  m

(* [n] iterations of [body i acc] from acc = 0; the function returns the
   final acc *)
let counted_loop b ~n body =
  let entry = Builder.current_block b in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and blk = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.const_i64 b n)) ~then_:blk ~else_:exit;
  Builder.switch_to b blk;
  let acc' = body i acc in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:blk ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:zero;
  Builder.add_phi_incoming b acc ~block:blk ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b acc

let wide b x = Builder.sext b Ty.I128 x
let hi_word b x = Builder.trunc b i64 (Builder.ashr b Ty.I128 x (Builder.const b Ty.I128 64L))

(* i128 multiplies as decimal arithmetic has them, price * (100 - disc)
   and price * -7: a sign-extended factor and a constant whose hi lane is
   its lo lane's sign need no fits-64-bits check, the difference does,
   and a product of two such factors needs neither a check nor the
   runtime stub *)
let case_mul_fits () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let const128 hi lo = Builder.const128 b (Qcomp_support.I128.make ~hi ~lo) in
  counted_loop b ~n:8L (fun i acc ->
      let price = wide b (Builder.add b i64 a0 i) in
      let disc = wide b (Builder.xor b i64 a1 i) in
      let q = Builder.smultrap b Ty.I128 price (Builder.ssubtrap b Ty.I128 (const128 0L 100L) disc) in
      let r = Builder.smultrap b Ty.I128 price (const128 (-1L) (-7L)) in
      let fold x = Builder.xor b i64 (Builder.trunc b i64 x) (hi_word b x) in
      Builder.add b i64 acc (Builder.add b i64 (fold q) (fold r)));
  m

(* an i128 value live across a call in a loop, with its hi lane in a
   callee-saved register and its lo lane in a caller-saved one when every
   callee-saved register is taken: [x0] and [x1] are defined before it
   and [x2] after it *)
let case_i128_across_call () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  counted_loop b ~n:6L (fun i acc ->
      let x k = Builder.mul b i64 a0 (Builder.add b i64 i (Builder.const_i64 b (Int64.of_int (k + 3)))) in
      let x0 = x 0 in
      let x1 = x 1 in
      let v = wide b (Builder.add b i64 a1 i) in
      let x2 = x 2 in
      let h = Builder.call b ~name:"umbra_crc32" ~args_ty:[| i64; i64 |] ~ret:i64 [ acc; i ] in
      let v2 = Builder.saddtrap b Ty.I128 v v in
      List.fold_left (Builder.add b i64)
        (Builder.xor b i64 h (Builder.trunc b i64 v2))
        [ hi_word b v2; x0; x1; x2 ]);
  m

(* a comparator over two rows of eight words with every word live at
   once: more values than caller-saved registers, as a sort comparator
   under pressure *)
let comparator () =
  let m = Func.create_module "m" in
  let b = Builder.create m ~name:"f" ~ret:i64 ~args:[| Ty.Ptr; Ty.Ptr |] in
  let pa = Builder.arg b 0 and pb = Builder.arg b 1 in
  let words p = List.init 8 (fun k -> Builder.load b i64 p ~offset:(8 * k)) in
  let xs = words pa and ys = words pb in
  let d =
    List.fold_left2
      (fun acc x y ->
        Builder.add b i64 (Builder.mul b i64 acc (Builder.const_i64 b 3L)) (Builder.sub b i64 x y))
      (Builder.const_i64 b 0L) xs ys
  in
  let neg = Builder.sext b i64 (Builder.cmp b Op.Slt d (Builder.const_i64 b 0L)) in
  let pos = Builder.sext b i64 (Builder.cmp b Op.Sgt d (Builder.const_i64 b 0L)) in
  Builder.ret b (Builder.sub b i64 pos neg);
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

(* (name, function, argument sets, instruction ceiling). The ceiling of
   the first nine cases is what the emitter that dropped every register at
   block edges and calls executed over them; that of the next five is
   what the emitter that copied every two-address operand, materialised
   every constant and spilled every live value at a call executed; that of
   the last two is what the emitter that checked every i128 factor, and
   wrote both lanes of an i128 value home at a call, executed. *)
let cases =
  [ ("integer predicates", case_predicates, arg_sets, 35136);
    ("isnull / isnotnull", case_null_tests, arg_sets, 2233);
    ("then-next, else-next, neither-next", case_layouts, small_sets, 810);
    ("phi swap on the back edge", case_phi_swap, small_sets, 24032);
    ("loop phi stays in a register", case_loop_carried, small_sets, 12088);
    ("merge reached with different registers", case_merge_states, small_sets, 284);
    ("call arguments in a register cycle", case_arg_cycle, small_sets, 136);
    ("values live across calls", case_live_across_call, small_sets, 1790);
    ("fused compare under full register pressure", case_pressure_compare, small_sets, 1064);
    ("x + x in 64 and 128 bits", case_double, arg_sets, 5904);
    ("live operands keep their registers", case_live_operands, small_sets, 1624);
    ("imm32 bounds fold, wider constants do not", case_imm_bounds, arg_sets, 5328);
    ("narrow results stay canonical after immediate ops", case_narrow_imm, arg_sets, 6336);
    ("a value live across calls in a loop", case_call_loop, small_sets, 1160);
    ("i128 factors that fit 64 bits are not checked", case_mul_fits, arg_sets, 67392);
    ("an i128 value live across a call in a loop", case_i128_across_call, small_sets, 2176) ]

(* run [f] over [args] on [backend]: results, executed instructions and
   cycles *)
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
  (* a broken loop fails instead of hanging *)
  emu.Qcomp_vm.Emu.fuel <- 10_000_000;
  let results = List.map (fun a -> fst (Qcomp_vm.Emu.call emu ~addr ~args:a)) args in
  let insts = Qcomp_vm.Emu.instructions_executed emu in
  let cycles = Qcomp_vm.Emu.cycles emu in
  Engine.dispose_module db cm;
  (results, insts, cycles)

let rule_tests =
  List.map
    (fun (name, mk, args, parent_insts) ->
      Alcotest.test_case ("rule: " ^ name) `Quick (fun () ->
          let db = Engine.create_db ~mem_size:(1 lsl 22) Qcomp_vm.Target.x64 in
          let expect, _, _ = run_case db Engine.interpreter mk args in
          let got, insts, _ = run_case db Engine.directemit mk args in
          Alcotest.(check (list int64)) "results = interpreter" expect got;
          if insts >= parent_insts then
            Alcotest.failf "%d instructions executed, the block-local emitter took %d" insts
              parent_insts))
    cases

(* the module's DirectEmit code, decoded *)
let decoded db m =
  let a =
    Qcomp_directemit.Directemit.compile_artifact
      ~timing:(Qcomp_support.Timing.create ~enabled:false ())
      ~target:Qcomp_vm.Target.x64 ~registry:db.Engine.registry m
  in
  fst (Qcomp_vm.Emu.decode_all Qcomp_vm.Target.x64 a.Qcomp_backend.Artifact.a_text)

let x64 = Qcomp_vm.Target.x64
let callee_saved r = Qcomp_vm.Target.is_callee_saved x64 r

let imm_bounds_test =
  Alcotest.test_case "immediates: imm32 bounds fold, wider constants are materialised" `Quick
    (fun () ->
      let db = Engine.create_db ~mem_size:(1 lsl 22) x64 in
      let code = decoded db (case_imm_bounds ()) in
      let folded c =
        Array.exists
          (function Qcomp_vm.Minst.Alu_ri (_, _, k) | Cmp_ri (_, k) -> k = c | _ -> false)
          code
      in
      (* the assembler's own wide-immediate expansion goes through the
         scratch register; a materialised constant takes an allocatable one *)
      let materialised c =
        Array.exists
          (function Qcomp_vm.Minst.Mov_ri (r, k) -> k = c && r <> x64.scratch | _ -> false)
          code
      in
      List.iter
        (fun c ->
          Alcotest.(check bool) (Printf.sprintf "%Ld is an immediate" c) true (folded c);
          Alcotest.(check bool) (Printf.sprintf "%Ld is not materialised" c) false (materialised c))
        fold_bounds;
      List.iter
        (fun c ->
          Alcotest.(check bool) (Printf.sprintf "%Ld is materialised" c) true (materialised c);
          Alcotest.(check bool) (Printf.sprintf "%Ld is no immediate" c) false (folded c))
        wide_bounds)

(* the source registers of the stack stores in [m]'s code *)
let stack_stores db m =
  Array.fold_left
    (fun acc i ->
      match i with
      | Qcomp_vm.Minst.St { src; base; _ } when base = x64.sp -> src :: acc
      | _ -> acc)
    [] (decoded db m)

(* the only stack stores are the prologue's saves, one per callee-saved
   register: neither [v] nor the counter is ever written home *)
let call_loop_test =
  Alcotest.test_case "calls: values live across a call in a loop are never stored" `Quick
    (fun () ->
      let db = Engine.create_db ~mem_size:(1 lsl 22) x64 in
      let stored = stack_stores db (case_call_loop ()) in
      List.iter
        (fun r ->
          if not (callee_saved r) then
            Alcotest.failf "%s, a caller-saved register, is stored to the stack"
              (Qcomp_vm.Target.reg_name x64 r))
        stored;
      Alcotest.(check int) "one save per register" (List.length (List.sort_uniq compare stored))
        (List.length stored))

(* at the call only the i128 value's caller-saved lane goes home: its hi
   lane stays in its callee-saved register, which only the prologue
   stores; the emitter that wrote both lanes home made 10 stack stores *)
let i128_call_test =
  Alcotest.test_case "calls: an i128 value with a callee-saved lane writes only the other home"
    `Quick (fun () ->
      let db = Engine.create_db ~mem_size:(1 lsl 22) x64 in
      let stored = stack_stores db (case_i128_across_call ()) in
      let saved = List.filter callee_saved stored in
      Alcotest.(check int) "one save per callee-saved register"
        (List.length (List.sort_uniq compare saved)) (List.length saved);
      if List.length stored >= 10 then
        Alcotest.failf "%d stack stores, the both-lanes emitter made 10" (List.length stored))

(* the host calls the comparator as umbra_sort does, with a sentinel in
   every callee-saved register: each must hold it again on return *)
let comparator_test =
  Alcotest.test_case "calls: a sort comparator leaves callee-saved registers intact" `Quick
    (fun () ->
      let db = Engine.create_db ~mem_size:(1 lsl 22) x64 in
      let uses_saved =
        Array.exists
          (function
            | Qcomp_vm.Minst.St { src; base; _ } -> base = x64.sp && callee_saved src
            | _ -> false)
          (decoded db (comparator ()))
      in
      Alcotest.(check bool) "the comparator saves a callee-saved register" true uses_saved;
      let mem = Qcomp_vm.Emu.memory db.Engine.emu in
      let row words =
        let a = Memory.unscoped (fun () -> Memory.alloc mem ~align:8 64) in
        List.iteri (fun k w -> Memory.store64 mem (a + (8 * k)) w) words;
        Int64.of_int a
      in
      let r1 = row [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]
      and r2 = row [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 9L ]
      and r3 = row [ 1L; -2L; 3L; 4L; 5L; 6L; 7L; 8L ] in
      let rows = [ r1; r2; r3 ] in
      let args = List.concat_map (fun a -> List.map (fun b -> [| a; b |]) rows) rows in
      let expect, _, _ = run_case db Engine.interpreter comparator args in
      let timing = Qcomp_support.Timing.create ~enabled:false () in
      let emu = db.Engine.emu in
      let cm =
        Qcomp_backend.Backend.compile_module Engine.directemit ~timing ~emu
          ~registry:db.Engine.registry ~unwind:db.Engine.unwind (comparator ())
      in
      let addr = Int64.to_int (Qcomp_backend.Backend.find_fn cm "f") in
      let sentinel r = Int64.of_int (0x5A5A0000 + r) in
      let got =
        List.map
          (fun a ->
            Array.iter (fun r -> Qcomp_vm.Emu.set_reg emu r (sentinel r)) x64.callee_saved;
            let res = fst (Qcomp_vm.Emu.call emu ~addr ~args:a) in
            Array.iter
              (fun r ->
                Alcotest.(check int64) (Qcomp_vm.Target.reg_name x64 r ^ " intact") (sentinel r)
                  (Qcomp_vm.Emu.reg emu r))
              x64.callee_saved;
            res)
          args
      in
      Engine.dispose_module db cm;
      Alcotest.(check (list int64)) "results = interpreter" expect got)

(* Column reads as codegen writes them, [load (gep col ~index:row ~scale)]
   with the column's address a constant: an i64, an i32 and an i128 read
   each fold the address into the load ([index * scale + disp], no base
   register), and an address read twice is computed once by a base-less
   lea. No column address is materialised. *)
let column_access_test =
  Alcotest.test_case "addresses: a column read is one indexed load, a shared one a base-less lea"
    `Quick (fun () ->
      let db = Engine.create_db ~mem_size:(1 lsl 22) x64 in
      let mem = Qcomp_vm.Emu.memory db.Engine.emu in
      let col = Memory.unscoped (fun () -> Memory.alloc mem ~align:16 512) in
      for k = 0 to 63 do
        Memory.store64 mem (col + (8 * k)) (Int64.of_int ((k * k * 7919) - 100_000))
      done;
      let mk () =
        let m, b = new_fn () in
        let row = Builder.arg b 0 and row2 = Builder.arg b 1 in
        let base = Builder.const_ptr b (Int64.of_int col) in
        let at ~scale ~index off = Builder.gep b base ~index ~scale off in
        let v = Builder.load b i64 (at ~scale:8 ~index:row 0) ~offset:0 in
        let w = Builder.load b Ty.I32 (at ~scale:4 ~index:row2 16) ~offset:4 in
        let d = Builder.load b Ty.I128 (at ~scale:8 ~index:row2 0) ~offset:8 in
        let p = at ~scale:8 ~index:row 8 in
        let x = Builder.load b i64 p ~offset:0 and y = Builder.load b i64 p ~offset:8 in
        let sum =
          List.fold_left (Builder.add b i64) v
            [ Builder.sext b i64 w; Builder.trunc b i64 d; hi_word b d; x; Builder.mul b i64 y (Builder.const_i64 b 3L) ]
        in
        Builder.ret b sum;
        m
      in
      let args = List.init 12 (fun k -> [| Int64.of_int (k * 5 mod 40); Int64.of_int (k * 3) |]) in
      let expect, _, _ = run_case db Engine.interpreter mk args in
      let got, _, _ = run_case db Engine.directemit mk args in
      Alcotest.(check (list int64)) "results = interpreter" expect got;
      let code = decoded db (mk ()) in
      let count p = Array.fold_left (fun n i -> if p i then n + 1 else n) 0 code in
      Alcotest.(check int) "base-less indexed loads: i64, i32 and both i128 lanes" 4
        (count (function Qcomp_vm.Minst.Ldx { base = -1; _ } -> true | _ -> false));
      Alcotest.(check int) "base-less lea of the shared address" 1
        (count (function Qcomp_vm.Minst.Lea { base = -1; _ } -> true | _ -> false));
      Alcotest.(check int) "column addresses materialised" 0
        (count (function
          | Qcomp_vm.Minst.Mov_ri (_, k) -> Int64.sub k (Int64.of_int col) < 64L && k >= Int64.of_int col
          | _ -> false)))

(* the layout case really lays out all three shapes *)
let layout_shape_test =
  Alcotest.test_case "layout: then-next, else-next and neither-next occur" `Quick (fun () ->
      let m, (entry, t, e, join, t2, head, latch, out2) = layouts () in
      let an =
        Analysis.compute ~intrinsics:(Analysis.intrinsics m) (Qcomp_support.Vec.get m.Func.funcs 0)
      in
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
let check_intervals m (f : Func.t) =
  let an = Analysis.compute ~intrinsics:(Analysis.intrinsics m) f in
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
          let m = cq.Qcomp_codegen.Codegen.modul in
          Qcomp_support.Vec.iter
            (fun f ->
              incr nf;
              check_intervals m f)
            m.Func.funcs)
        (Experiments.queries_of wl);
      Alcotest.(check bool) "functions checked" true (!nf > 0))

(* ---------------- string intrinsics ---------------- *)

let str_eq b x y = Builder.call b ~name:"umbra_strEq" ~args_ty:[| Ty.Ptr; Ty.Ptr |] ~ret:i64 [ x; y ]
let str_hash b x _ = Builder.call b ~name:"umbra_strHash" ~args_ty:[| Ty.Ptr |] ~ret:i64 [ x ]

(* f(a, b) = op(a, b) *)
let intrinsic_alone op () =
  let m, b = new_fn () in
  Builder.ret b (op b (Builder.arg b 0) (Builder.arg b 1));
  m

(* fourteen values derived from the arguments are live across the
   intrinsic, and so are the arguments, which it takes swapped: every
   allocatable register holds a live value there, and the slow path's
   stub, whose argument moves overwrite both argument registers and whose
   call returns in rax, must save and restore each one *)
let intrinsic_pressure op () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let ws =
    List.init 14 (fun k ->
        Builder.xor b i64 (if k land 1 = 0 then a0 else a1) (Builder.const_i64 b (Int64.of_int (k + 1))))
  in
  let r = op b a1 a0 in
  let sum = List.fold_left (fun acc w -> Builder.add b i64 acc w) r ws in
  Builder.ret b (Builder.sub b i64 (Builder.add b i64 sum a0) a1);
  m

(* three loop iterations, each calling the intrinsic with the counter and
   accumulator phis live across it *)
let intrinsic_loop op () =
  let m, b = new_fn () in
  let a0 = Builder.arg b 0 and a1 = Builder.arg b 1 in
  let entry = Builder.current_block b in
  let zero = Builder.const_i64 b 0L in
  let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi_placeholder b i64 ~max_incoming:2 in
  let acc = Builder.phi_placeholder b i64 ~max_incoming:2 in
  Builder.condbr b (Builder.cmp b Op.Slt i (Builder.const_i64 b 3L)) ~then_:body ~else_:exit;
  Builder.switch_to b body;
  let r = op b a0 a1 in
  let acc' =
    Builder.add b i64 (Builder.mul b i64 acc (Builder.const_i64 b 31L)) (Builder.add b i64 r i)
  in
  let i' = Builder.add b i64 i (Builder.const_i64 b 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b i ~block:entry ~value:zero;
  Builder.add_phi_incoming b i ~block:body ~value:i';
  Builder.add_phi_incoming b acc ~block:entry ~value:a0;
  Builder.add_phi_incoming b acc ~block:body ~value:acc';
  Builder.switch_to b exit;
  Builder.ret b (Builder.xor b i64 acc a1);
  m

let digits = "abcdefghijklmnopqrstuvwxyz0123456789ABCD"
let str_lengths = [ 0; 1; 4; 5; 11; 12; 13; 16; 40 ]

(* (a, b) pairs: for every length, the same string at another address,
   one that differs in its last byte (for long strings, the same prefix
   and a different tail) and in its first, one a NUL byte longer (equal
   padded words, different length), and the next longer prefix. *)
let string_pairs =
  let set s k c = String.mapi (fun j x -> if j = k then c else x) s in
  List.concat_map
    (fun n ->
      let s = String.sub digits 0 n in
      [ (s, s); (s, s ^ "\000"); (s ^ "\000", s) ]
      @ (if n > 0 then [ (s, set s (n - 1) '!'); (set s 0 '!', s) ] else [])
      @ if n < String.length digits then [ (s, String.sub digits 0 (n + 1)) ] else [])
    str_lengths

let runtime_eq mem a b = if Sso.equal mem a b then 1L else 0L
let runtime_hash mem a _ = Sso.hash mem a

(* (name, function, the runtime's own answer when the function returns
   it as is, cycles the runtime call took over [string_pairs] plus one
   long string passed as both arguments) *)
let intrinsic_cases =
  List.concat_map
    (fun (opname, op, runtime, (alone, pressure, loop)) ->
      [ (opname ^ " alone", intrinsic_alone op, Some runtime, alone);
        (opname ^ " under full register pressure", intrinsic_pressure op, None, pressure);
        (opname ^ " in a loop", intrinsic_loop op, None, loop) ])
    [ ("strEq", str_eq, runtime_eq, (1620, 9004, 9696));
      ("strHash", str_hash, runtime_hash, (2316, 9626, 11628)) ]

let intrinsic_tests =
  List.map
    (fun (name, mk, runtime, call_cycles) ->
      Alcotest.test_case ("intrinsic: " ^ name) `Quick (fun () ->
          let db = Engine.create_db ~mem_size:(1 lsl 22) Qcomp_vm.Target.x64 in
          let mem = Qcomp_vm.Emu.memory db.Engine.emu in
          let alloc s = Memory.unscoped (fun () -> Sso.alloc mem s) in
          let long = alloc digits in
          let addrs = (long, long) :: List.map (fun (a, b) -> (alloc a, alloc b)) string_pairs in
          let args = List.map (fun (a, b) -> [| Int64.of_int a; Int64.of_int b |]) addrs in
          let expect, _, _ = run_case db Engine.interpreter mk args in
          let got, _, cycles = run_case db Engine.directemit mk args in
          Alcotest.(check (list int64)) "results = interpreter" expect got;
          Option.iter
            (fun rt ->
              Alcotest.(check (list int64)) "results = runtime" (List.map (fun (a, b) -> rt mem a b) addrs) got)
            runtime;
          if cycles >= call_cycles then
            Alcotest.failf "%d cycles, the runtime call took %d" cycles call_cycles))
    intrinsic_cases

(* ---------------- the zero padding both rely on ---------------- *)

(* bytes [4 + length, 16) of a short string's struct are zero *)
let check_padding mem what addr =
  let n = Sso.length mem addr in
  if n <= Sso.inline_max then
    for k = 4 + n to Sso.struct_size - 1 do
      if Memory.load mem ~addr:(addr + k) ~size:1 ~sext:false <> 0L then
        Alcotest.failf "%s: byte %d of the struct of %S is not zero" what k (Sso.read mem addr)
    done

let padding_test wl label =
  Alcotest.test_case ("short strings are zero-padded: " ^ label ^ " columns and constants") `Quick
    (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 wl ~sf:1 in
      let mem = Qcomp_vm.Emu.memory db.Engine.emu in
      let strings = ref 0 in
      List.iter
        (fun (name, t) ->
          let schema = Qcomp_storage.Table.schema t in
          Array.iteri
            (fun col (c : Qcomp_storage.Schema.column) ->
              if c.Qcomp_storage.Schema.col_ty = Qcomp_storage.Schema.Str then
                for row = 0 to Qcomp_storage.Table.rows t - 1 do
                  incr strings;
                  check_padding mem (name ^ "." ^ c.Qcomp_storage.Schema.col_name)
                    (Qcomp_storage.Table.cell_addr t col row)
                done)
            schema.Qcomp_storage.Schema.cols)
        db.Engine.tables;
      List.iter
        (fun (q : Spec.query) ->
          let cq = Engine.plan_to_ir db ~name:q.Spec.q_name q.Spec.q_plan in
          List.iter
            (fun (_, addr) ->
              incr strings;
              check_padding mem (q.Spec.q_name ^ " constant") addr)
            cq.Qcomp_codegen.Codegen.const_strs)
        (Experiments.queries_of wl);
      Alcotest.(check bool) "strings checked" true (!strings > 0))

(* every string parameter a Paramgen literal binds, in the struct the
   linker allocates for it *)
let param_padding_test =
  Alcotest.test_case "short strings are zero-padded: bound string parameters" `Quick (fun () ->
      let db = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let mem = Qcomp_vm.Emu.memory db.Engine.emu in
      let bound = ref 0 in
      List.iter
        (fun (q : Spec.query) ->
          let shape, vals = Qcomp_plan.Paramize.normalize q.Spec.q_plan in
          let params =
            Array.map
              (function
                | Qcomp_plan.Paramize.V_int (_, v) -> Qcomp_backend.Artifact.Pv_int v
                | Qcomp_plan.Paramize.V_str s -> Qcomp_backend.Artifact.Pv_str s)
              vals
          in
          let strs =
            Array.fold_left
              (fun n v -> match v with Qcomp_backend.Artifact.Pv_str _ -> n + 1 | _ -> n)
              0 params
          in
          if strs > 0 then begin
            let cq = Engine.plan_to_ir db ~name:q.Spec.q_name shape in
            let cm =
              Qcomp_backend.Backend.compile_module Engine.directemit ~params
                ~timing:(Qcomp_support.Timing.create ~enabled:false ())
                ~emu:db.Engine.emu ~registry:db.Engine.registry ~unwind:db.Engine.unwind
                cq.Qcomp_codegen.Codegen.modul
            in
            (* the parameter structs are the module's 16-byte-aligned
               data blocks; the GOT is 8-byte aligned *)
            let blocks =
              List.filter (fun (_, _, align) -> align = 16) cm.Qcomp_backend.Backend.cm_data_blocks
            in
            Alcotest.(check int) (q.Spec.q_name ^ ": one struct per string") strs (List.length blocks);
            List.iter
              (fun (addr, _, _) ->
                incr bound;
                check_padding mem (q.Spec.q_name ^ " parameter") addr)
              blocks;
            Engine.dispose_module db cm
          end)
        Qcomp_workloads.Paramgen.queries;
      Alcotest.(check bool) "parameters checked" true (!bound > 0))

(* ---------------- snapshot versioning ---------------- *)

(* DirectEmit code computes the short-string hash inline, so its code
   version is folded into every snapshot record's key: a record written by
   a build whose code version differs is refused at load. The test
   rewrites the first record's key to the one such a build would have
   written, and fixes the payload CRC so only the key check can object. *)
let snapshot_version_test =
  Alcotest.test_case "snapshot: a record keyed under another code version fails loud" `Quick
    (fun () ->
      let module Code_cache = Qcomp_server.Code_cache in
      let make_db () = Experiments.make_db Qcomp_vm.Target.x64 Experiments.Tpch ~sf:1 in
      let q =
        List.find
          (fun (q : Spec.query) -> q.Spec.q_name = "q12")
          (Experiments.queries_of Experiments.Tpch)
      in
      let key v =
        Qcomp_server.Fingerprint.key_v ~backend_version:v
          ~param_version:Qcomp_plan.Paramize.format_version
          ~version:Qcomp_backend.Artifact.format_version ~backend:"directemit"
          ~target:"x86-64" q.Spec.q_plan
      in
      let version = Qcomp_directemit.Directemit.code_version in
      let file = Filename.temp_file "qcomp_test_directemit" ".qcss" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let db = make_db () in
          let cache = Code_cache.create ~capacity:4 in
          let e, _ =
            Code_cache.get_or_compile cache db ~backend:Engine.directemit ~name:"q12" q.Spec.q_plan
          in
          ignore (Code_cache.force cache db e);
          Code_cache.save cache ~db file;
          ignore (Code_cache.load ~capacity:4 ~db:(make_db ()) file);
          let b =
            let ic = open_in_bin file in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Bytes.of_string s
          in
          (* header: magic(4) version(4) target(4+len) count(4) paylen(4);
             the first record leads with its i64 key_v *)
          let key_off = 20 + Int32.to_int (Bytes.get_int32_le b 8) in
          Alcotest.(check int64) "the key folds in the code version" (key version)
            (Bytes.get_int64_le b key_off);
          (* the version before this one (3 had no indexed loads) and a
             later one *)
          List.iter
            (fun other ->
              Bytes.set_int64_le b key_off (key other);
              let crc = ref 0xC5_C5_C5L in
              for i = key_off to Bytes.length b - 9 do
                crc := Qcomp_support.Hashes.crc32c_byte !crc (Char.code (Bytes.get b i))
              done;
              Bytes.set_int64_le b (Bytes.length b - 8) !crc;
              let oc = open_out_bin file in
              output_bytes oc b;
              close_out oc;
              match Code_cache.load ~capacity:4 ~db:(make_db ()) file with
              | _ -> Alcotest.failf "a record keyed under code version %d was accepted" other
              | exception Invalid_argument _ -> ())
            [ version - 1; version + 1 ]))

let suite =
  rule_tests
  @ intrinsic_tests
  @ [ imm_bounds_test;
      call_loop_test;
      i128_call_test;
      comparator_test;
      padding_test Experiments.Tpch "TPC-H";
      padding_test Experiments.Tpcds "TPC-DS-like";
      param_padding_test;
      snapshot_version_test;
      column_access_test;
      layout_shape_test;
      oracle_test Experiments.Tpch "TPC-H";
      oracle_test Experiments.Tpcds "TPC-DS-like" ]
