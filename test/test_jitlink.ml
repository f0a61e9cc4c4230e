(* Unwind-table registration and MIR machine passes (parallel-move phi
   elimination). The link step itself is Backend.link_artifact, covered by
   test_backends and test_server. *)

open Qcomp_vm
open Qcomp_llvm

let check = Alcotest.check

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
  ]
