(* Unwind-table registration and MIR machine passes (parallel-move phi
   elimination, the greedy allocator's spill code, branch folding). The
   link step itself is Backend.link_artifact, covered by test_backends and
   test_server. *)

open Qcomp_vm
open Qcomp_llvm
module Vec = Qcomp_support.Vec

let check = Alcotest.check

(* Encode finished MIR (no vregs, frame indices or phis left) and run it
   on the emulator. An [Mcall] calls the OCaml runtime function of that
   name through the assembler scratch, as the large code model does. *)
let run_mir ?(runtime = []) (m : Mir.t) ~args =
  let target = m.Mir.target in
  let emu = Emu.create ~mem_size:(1 lsl 20) target in
  let addrs = List.map (fun (name, f) -> (name, Emu.add_runtime emu name f)) runtime in
  let a = Asm.create target in
  let labels = Array.map (fun _ -> Asm.new_label a) m.Mir.blocks in
  Array.iteri
    (fun b (blk : Mir.block) ->
      Asm.bind a labels.(b);
      Vec.iter
        (function
          | Mir.M (Minst.Jmp t) -> Asm.jmp a labels.(t)
          | Mir.M (Minst.Jcc (c, t)) -> Asm.jcc a c labels.(t)
          | Mir.M i -> Asm.emit a i
          | Mir.Mcall { sym } ->
              Asm.emit a (Minst.Mov_ri (target.Target.scratch, List.assoc sym addrs));
              Asm.emit a (Minst.Call_ind target.Target.scratch)
          | Mir.Mphi _ | Mir.Mframe_ld _ | Mir.Mframe_st _ ->
              Alcotest.fail "pseudo instruction left after the MIR passes")
        blk.Mir.insts)
    m.Mir.blocks;
  let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
  fst (Emu.call emu ~addr:base ~args)

(* a runtime function that clobbers every caller-saved register and both
   scratches, as a real callee may *)
let clobber =
  ( "clobber",
    fun e -> List.iter (fun r -> Emu.set_reg e r 0x5EEDL) [ 0; 1; 2; 6; 7; 8; 9; 10; 11 ] )

let count_insts (m : Mir.t) p =
  Array.fold_left
    (fun acc (blk : Mir.block) ->
      Vec.fold_left (fun acc i -> if p i then acc + 1 else acc) acc blk.Mir.insts)
    0 m.Mir.blocks

let greedy (m : Mir.t) =
  ignore (Mpasses.regalloc_greedy m (Mpasses.compute_liveness m) (Mpasses.block_freq m))

(* finish allocated MIR as the -O2 pipeline does, then run it *)
let finish_and_run m =
  Mpasses.remove_identity_moves m;
  ignore (Mpasses.prologue_epilogue m);
  Mpasses.drop_fallthrough_jumps m;
  run_mir ~runtime:[ clobber ] m ~args:[||]

let push_call m =
  Mir.record_call m ~block:0 ~pos:(Vec.length m.Mir.blocks.(0).Mir.insts);
  Mir.push m 0 (Mir.Mcall { sym = "clobber" })

(* x86-64 has five allocatable callee-saved registers. Six values cross
   the first call: four [h] (4 defs and uses each), [w] (7) and [y] (3), a
   copy of [x]. [y] weighs least, so it alone spills. After the call [y]
   is added into [r] twice, with a second call between the two uses when
   [call_between]. It returns 3 * (1 + 2 + 3 + 4) + 2 * 100 = 230. *)
let spill_fn ~call_between =
  let m = Mir.create Target.x64 1 in
  let push i = Mir.push m 0 (Mir.M i) in
  let hs =
    List.init 4 (fun k ->
        let h = Mir.new_vreg m in
        push (Minst.Mov_ri (h, Int64.of_int (k + 1)));
        h)
  in
  let w = Mir.new_vreg m and x = Mir.new_vreg m and y = Mir.new_vreg m in
  let r = Mir.new_vreg m in
  push (Minst.Mov_ri (w, 5L));
  push (Minst.Mov_ri (x, 100L));
  push (Minst.Mov_rr (y, x));
  push_call m;
  for _ = 1 to 3 do
    push (Minst.Cmp_rr (w, w))
  done;
  push (Minst.Mov_ri (r, 0L));
  for _ = 1 to 3 do
    List.iter (fun h -> push (Minst.Alu_rr (Minst.Add, r, h))) hs
  done;
  push (Minst.Alu_rr (Minst.Add, r, y));
  if call_between then push_call m;
  push (Minst.Alu_rr (Minst.Add, r, y));
  push (Minst.Mov_rr (0, r));
  push Minst.Ret;
  m

let is_frame_ld = function Mir.Mframe_ld _ -> true | _ -> false
let is_frame_st = function Mir.Mframe_st _ -> true | _ -> false

(* a two-way branch on [cmp rdi, rsi] whose taken side is the next block
   and whose other side is a jump: block 1 returns 1, block 2 returns 0 *)
let branch_fn c =
  let m = Mir.create Target.x64 3 in
  Mir.push m 0 (Mir.M (Minst.Cmp_rr (7, 6)));
  Mir.push m 0 (Mir.M (Minst.Jcc (c, 1)));
  Mir.push m 0 (Mir.M (Minst.Jmp 2));
  Mir.push m 1 (Mir.M (Minst.Mov_ri (0, 1L)));
  Mir.push m 1 (Mir.M Minst.Ret);
  Mir.push m 2 (Mir.M (Minst.Mov_ri (0, 0L)));
  Mir.push m 2 (Mir.M Minst.Ret);
  m

(* what [cmp a, b] followed by [j<c>] decides *)
let cond_holds (c : Minst.cond) a b =
  let ult x y = Int64.unsigned_compare x y < 0 in
  match c with
  | Minst.Eq -> a = b
  | Ne -> a <> b
  | Slt -> a < b
  | Sle -> a <= b
  | Sgt -> a > b
  | Sge -> a >= b
  | Ult -> ult a b
  | Ule -> not (ult b a)
  | Ugt -> ult b a
  | Uge -> not (ult a b)
  | Ov -> Int64.logand (Int64.logxor a b) (Int64.logxor a (Int64.sub a b)) < 0L
  | Noov -> Int64.logand (Int64.logxor a b) (Int64.logxor a (Int64.sub a b)) >= 0L

let cmp_pairs =
  [
    (0L, 0L); (1L, 2L); (2L, 1L); (-1L, 1L); (1L, -1L);
    (Int64.min_int, 1L); (Int64.max_int, -1L); (Int64.min_int, Int64.max_int);
  ]

let branch_reversal_case c =
  Alcotest.test_case
    (Printf.sprintf "branch folding reverses jcc %s over a jmp" (Minst.cond_name c))
    `Quick (fun () ->
      check Alcotest.bool "negation is an involution" true
        (Minst.cond_negate (Minst.cond_negate c) = c);
      let m = branch_fn c in
      Mpasses.drop_fallthrough_jumps m;
      (match Vec.to_list m.Mir.blocks.(0).Mir.insts with
      | [ Mir.M (Minst.Cmp_rr _); Mir.M (Minst.Jcc (c', 2)) ] ->
          check Alcotest.bool "the negated condition" true (c' = Minst.cond_negate c)
      | _ -> Alcotest.fail "block 0 does not end in one reversed jcc");
      List.iter
        (fun (a, b) ->
          check Alcotest.int64
            (Printf.sprintf "cmp %Ld, %Ld" a b)
            (if cond_holds c a b then 1L else 0L)
            (run_mir m ~args:[| a; b |]))
        cmp_pairs)

let all_conds =
  Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge; Ov; Noov ]

let suite =
  [
    Alcotest.test_case "unwind: rule lookup by address" `Quick (fun () ->
        let u = Unwind.create () in
        Unwind.register u ~start:0x1000 ~size:64 ~sync_only:false
          [
            (0, { Unwind.cfa_offset = 8; saved_regs = [] });
            (16, { Unwind.cfa_offset = 48; saved_regs = [ (3, 0) ] });
          ];
        (match Unwind.rule_at u 0x1004 with
        | Some r -> check Alcotest.int "prologue rule" 8 r.Unwind.cfa_offset
        | None -> Alcotest.fail "expected rule");
        (match Unwind.rule_at u 0x1020 with
        | Some r ->
            check Alcotest.int "body rule" 48 r.Unwind.cfa_offset;
            check Alcotest.(list (pair int int)) "saved" [ (3, 0) ] r.Unwind.saved_regs
        | None -> Alcotest.fail "expected rule");
        check Alcotest.bool "outside" true (Unwind.rule_at u 0x2000 = None);
        check Alcotest.int "fde count" 1 (Unwind.num_fdes u);
        check Alcotest.bool "bytes accounted" true (Unwind.bytes_written u > 0));
    Alcotest.test_case "phi_elim resolves swap cycles without extra temps per edge"
      `Quick (fun () ->
        (* block 0 jumps to block 1 with phis a<-b, b<-a (a swap): the
           parallel-move sequencer must produce exactly 3 moves (one temp),
           not 4 as two-phase staging would *)
        let m = Mir.create Target.x64 2 in
        let b0 = 0 and b1 = 1 in
        let va = Mir.new_vreg m and vb = Mir.new_vreg m in
        Mir.push m b0 (Mir.M (Minst.Mov_ri (va, 1L)));
        Mir.push m b0 (Mir.M (Minst.Mov_ri (vb, 2L)));
        Mir.push m b0 (Mir.M (Minst.Jmp 0));
        let pa = Mir.new_vreg m and pb = Mir.new_vreg m in
        Mir.push m b1 (Mir.Mphi { dst = pa; incoming = [| (b0, vb) |] });
        Mir.push m b1 (Mir.Mphi { dst = pb; incoming = [| (b0, va) |] });
        Mir.push m b1 (Mir.M Minst.Ret);
        Mpasses.phi_elim m;
        let moves b =
          let n = ref 0 in
          Qcomp_support.Vec.iter
            (fun i -> match i with Mir.M (Minst.Mov_rr _) -> incr n | _ -> ())
            m.Mir.blocks.(b).Mir.insts
        ; !n
        in
        (* dst vregs differ from sources here, so no cycle: exactly 2 moves *)
        check Alcotest.int "2 copies" 2 (moves b0);
        (* no phis left *)
        Qcomp_support.Vec.iter
          (fun i ->
            match i with
            | Mir.Mphi _ -> Alcotest.fail "phi left behind"
            | _ -> ())
          m.Mir.blocks.(b1).Mir.insts);
    Alcotest.test_case "phi_elim breaks a real swap cycle with one temp" `Quick
      (fun () ->
        let m = Mir.create Target.x64 2 in
        let b0 = 0 and b1 = 1 in
        let pa = Mir.new_vreg m and pb = Mir.new_vreg m in
        Mir.push m b0 (Mir.M (Minst.Mov_ri (pa, 1L)));
        Mir.push m b0 (Mir.M (Minst.Mov_ri (pb, 2L)));
        Mir.push m b0 (Mir.M (Minst.Jmp 0));
        (* b1's phis swap pa and pb (sources are the dsts themselves) *)
        Mir.push m b1 (Mir.Mphi { dst = pa; incoming = [| (b0, pb) |] });
        Mir.push m b1 (Mir.Mphi { dst = pb; incoming = [| (b0, pa) |] });
        Mir.push m b1 (Mir.M Minst.Ret);
        Mpasses.phi_elim m;
        let moves = ref 0 in
        Qcomp_support.Vec.iter
          (fun i -> match i with Mir.M (Minst.Mov_rr _) -> incr moves | _ -> ())
          m.Mir.blocks.(b0).Mir.insts;
        check Alcotest.int "3 moves for a 2-cycle" 3 !moves);
    Alcotest.test_case "remove_identity_moves drops only self-moves" `Quick
      (fun () ->
        let m = Mir.create Target.x64 1 in
        Mir.push m 0 (Mir.M (Minst.Mov_rr (3, 3)));
        Mir.push m 0 (Mir.M (Minst.Mov_rr (3, 4)));
        Mir.push m 0 (Mir.M Minst.Ret);
        Mpasses.remove_identity_moves m;
        check Alcotest.int "2 left" 2
          (Qcomp_support.Vec.length m.Mir.blocks.(0).Mir.insts));
    Alcotest.test_case "greedy RA folds a copy into a spilled vreg into one frame store"
      `Quick (fun () ->
        let m = spill_fn ~call_between:false in
        greedy m;
        check Alcotest.int "one frame store" 1 (count_insts m is_frame_st);
        check Alcotest.int "no move into r10" 0
          (count_insts m (function Mir.M (Minst.Mov_rr (10, _)) -> true | _ -> false));
        check Alcotest.int64 "result" 230L (finish_and_run m));
    Alcotest.test_case "greedy RA reads a spilled value twice from one reload" `Quick
      (fun () ->
        let m = spill_fn ~call_between:false in
        greedy m;
        check Alcotest.int "one frame load" 1 (count_insts m is_frame_ld);
        check Alcotest.int64 "result" 230L (finish_and_run m));
    Alcotest.test_case "greedy RA reloads a spilled value after a call" `Quick (fun () ->
        let m = spill_fn ~call_between:true in
        greedy m;
        check Alcotest.int "two frame loads" 2 (count_insts m is_frame_ld);
        check Alcotest.int64 "result" 230L (finish_and_run m));
    Alcotest.test_case "greedy RA gives a copy its partner's register" `Quick (fun () ->
        (* x crosses the call, so it takes a callee-saved register; y, its
           copy, crosses none and would take rax first, but the hint gives
           it x's register and the copy becomes an identity move *)
        let m = Mir.create Target.x64 1 in
        let push i = Mir.push m 0 (Mir.M i) in
        let x = Mir.new_vreg m and y = Mir.new_vreg m and r = Mir.new_vreg m in
        push (Minst.Mov_ri (x, 7L));
        push (Minst.Cmp_rr (x, x));
        push (Minst.Cmp_rr (x, x));
        push_call m;
        push (Minst.Mov_rr (y, x));
        push (Minst.Cmp_ri (y, 7L));
        push (Minst.Setcc (Minst.Eq, r));
        push (Minst.Mov_rr (0, r));
        push Minst.Ret;
        greedy m;
        check Alcotest.int "nothing spilled" 0 (count_insts m is_frame_st);
        let result = finish_and_run m in
        check Alcotest.int "no move left" 0
          (count_insts m (function Mir.M (Minst.Mov_rr _) -> true | _ -> false));
        check Alcotest.int64 "result" 1L result);
  ]
  @ List.map branch_reversal_case all_conds
