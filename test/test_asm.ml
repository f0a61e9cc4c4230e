(* Encoder/decoder roundtrips on both virtual targets: every encodable
   instruction must decode back to itself (after target-specific pseudo
   expansion), including across random instruction streams. *)

open Qcomp_vm

let check = Alcotest.check

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let roundtrip target insts =
  let a = Asm.create target in
  List.iter (Asm.emit a) insts;
  let blob = Asm.finish a in
  let decoded, _ = Emu.decode_all target blob in
  Array.to_list decoded

(* encode one instruction and decode it back; pseudo-expanding targets may
   produce several instructions, so compare by executing semantics later —
   here we only demand the non-pseudo forms roundtrip exactly. *)
let exact_roundtrip target inst =
  match roundtrip target [ inst ] with
  | [ d ] -> d = inst
  | _ -> false

let gen_reg mx = QCheck2.Gen.int_bound mx

let gen_alu =
  QCheck2.Gen.oneofl
    Minst.[ Add; Sub; Adc; Sbb; And; Or; Xor; Mul; Shl; Shr; Sar; Ror ]

let gen_cond =
  QCheck2.Gen.oneofl
    Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge; Ov; Noov ]

let gen_imm32 = QCheck2.Gen.(map Int64.of_int (int_range (-0x4000_0000) 0x3FFF_FFFF))

let gen_disp32 = QCheck2.Gen.int_range (-0x8000_0000) 0x7FFF_FFFF

(* x64: two-address forms, 16 registers *)
let gen_x64_inst =
  let open QCheck2.Gen in
  let r = gen_reg 15 in
  oneof
    [
      return Minst.Nop;
      map2 (fun d s -> Minst.Mov_rr (d, s)) r r;
      map2 (fun d v -> Minst.Mov_ri (d, v)) r ui64;
      map3 (fun op d s -> Minst.Alu_rr (op, d, s)) gen_alu r r;
      map3 (fun op d v -> Minst.Alu_ri (op, d, v)) gen_alu r gen_imm32;
      map2 (fun a b -> Minst.Cmp_rr (a, b)) r r;
      map2 (fun a v -> Minst.Cmp_ri (a, v)) r gen_imm32;
      map3
        (fun dst base (off, size, sext) -> Minst.Ld { dst; base; off; size; sext })
        r r
        (triple (int_range (-2048) 2047) (oneofl [ 1; 2; 4; 8 ]) bool);
      map3
        (fun src base (off, size) -> Minst.St { src; base; off; size })
        r r
        (pair (int_range (-2048) 2047) (oneofl [ 1; 2; 4; 8 ]));
      map3
        (fun dst base (index, scale, off) -> Minst.Lea { dst; base; index; scale; off })
        r r
        (triple (int_bound 15) (oneofl [ 1; 2; 4; 8 ]) (int_range (-1024) 1024));
      map3
        (fun dst base (index, scale, off) -> Minst.Lea { dst; base; index; scale; off })
        r (return (-1))
        (triple r (oneofl [ 1; 2; 4; 8 ]) gen_disp32);
      map3
        (fun (dst, base) (index, scale, off) (size, sext) ->
          Minst.Ldx { dst; base; index; scale; off; size; sext })
        (pair r (oneof [ r; return (-1) ]))
        (triple r (oneofl [ 1; 2; 4; 8 ]) gen_disp32)
        (pair (oneofl [ 1; 2; 4; 8 ]) bool);
      map3
        (fun dst src (bits, signed) -> Minst.Ext { dst; src; bits; signed })
        r r
        (pair (oneofl [ 8; 16; 32 ]) bool);
      map2 (fun signed src -> Minst.Mul_wide { signed; src }) bool r;
      map2 (fun signed src -> Minst.Div { signed; src }) bool r;
      map2 (fun d s -> Minst.Crc32_rr (d, s)) r r;
      map2 (fun c d -> Minst.Setcc (c, d)) gen_cond r;
      map3 (fun cond d b -> Minst.Csel { cond; dst = d; a = d; b }) gen_cond r r;
      map (fun r -> Minst.Jmp_ind r) r;
      map (fun r -> Minst.Call_ind r) r;
      return Minst.Ret;
      map (fun c -> Minst.Brk c) (int_bound 255);
    ]

(* a64: three-address forms, 31 GPRs *)
let gen_a64_inst =
  let open QCheck2.Gen in
  let r = gen_reg 30 in
  oneof
    [
      return Minst.Nop;
      map2 (fun d s -> Minst.Mov_rr (d, s)) r r;
      map3 (fun d i sh -> Minst.Movz (d, i, sh)) r (int_bound 0xFFFF) (int_bound 3);
      map3 (fun d i sh -> Minst.Movk (d, i, sh)) r (int_bound 0xFFFF) (int_bound 3);
      map3 (fun op d (a, b) -> Minst.Alu_rrr (op, d, a, b)) gen_alu r (pair r r);
      map3 (fun op d (a, v) -> Minst.Alu_rri (op, d, a, v)) gen_alu r
        (pair r (map Int64.of_int (int_bound 0xFFF)));
      map2 (fun a b -> Minst.Cmp_rr (a, b)) r r;
      (* offsets must be size-scaled and non-negative to encode in one
         word, as on real AArch64; others expand to pseudo sequences *)
      map3
        (fun dst base (k, size, sext) -> Minst.Ld { dst; base; off = k * size; size; sext })
        r r
        (triple (int_bound 200) (oneofl [ 1; 2; 4; 8 ]) bool);
      map3
        (fun src base (k, size) -> Minst.St { src; base; off = k * size; size })
        r r
        (pair (int_bound 200) (oneofl [ 1; 2; 4; 8 ]));
      (* the register-offset load: lsl 0 or log2 of the access size *)
      map3
        (fun (dst, base) (index, scaled) (size, sext) ->
          Minst.Ldx { dst; base; index; scale = (if scaled then size else 1); off = 0; size; sext })
        (pair r r) (pair r bool)
        (pair (oneofl [ 1; 2; 4; 8 ]) bool);
      map3
        (fun signed dst (a, b) -> Minst.Mul_hi { signed; dst; a; b })
        bool r (pair r r);
      map3
        (fun signed dst (a, b) -> Minst.Div_rrr { signed; dst; a; b })
        bool r (pair r r);
      (* the A64 encoder requires the accumulator in the destination *)
      map3 (fun dst a b -> Minst.Msub { dst; a; b; c = dst }) r r r;
      map3 (fun d a b -> Minst.Crc32_rrr (d, a, b)) r r r;
      map3 (fun cond dst (a, b) -> Minst.Csel { cond; dst; a; b }) gen_cond r (pair r r);
      return Minst.Ret;
      map (fun c -> Minst.Brk c) (int_bound 255);
    ]

let unit_cases =
  [
    Alcotest.test_case "x64 mov imm64 roundtrips" `Quick (fun () ->
        check Alcotest.bool "ok" true
          (exact_roundtrip Target.x64 (Minst.Mov_ri (3, 0x1234_5678_9ABC_DEF0L))));
    Alcotest.test_case "a64 mov imm64 expands to movz/movk" `Quick (fun () ->
        let ds = roundtrip Target.a64 [ Minst.Mov_ri (5, 0x1234_5678_9ABC_DEF0L) ] in
        check Alcotest.bool "several words" true (List.length ds >= 2);
        (* executing the expansion must reproduce the constant *)
        let v = ref 0L in
        List.iter
          (fun i ->
            match i with
            | Minst.Movz (_, imm, sh) -> v := Int64.of_int (imm lsl (16 * sh))
            | Minst.Movk (_, imm, sh) ->
                let mask = Int64.lognot (Int64.of_int (0xFFFF lsl (16 * sh))) in
                v := Int64.logor (Int64.logand !v mask) (Int64.of_int (imm lsl (16 * sh)))
            | Minst.Mov_ri (_, c) -> v := c
            | _ -> ())
          ds;
        check Alcotest.int64 "value" 0x1234_5678_9ABC_DEF0L !v);
    Alcotest.test_case "a64 words are 4 bytes" `Quick (fun () ->
        let a = Asm.create Target.a64 in
        Asm.emit a (Minst.Alu_rrr (Minst.Add, 0, 1, 2));
        Asm.emit a Minst.Ret;
        check Alcotest.int "8 bytes" 8 (Bytes.length (Asm.finish a)));
    Alcotest.test_case "x64 variable length" `Quick (fun () ->
        let len i =
          let a = Asm.create Target.x64 in
          Asm.emit a i;
          Bytes.length (Asm.finish a)
        in
        check Alcotest.bool "ret shorter than mov_ri64" true
          (len Minst.Ret < len (Minst.Mov_ri (0, Int64.max_int))));
    Alcotest.test_case "labels: forward jump patched" `Quick (fun () ->
        let a = Asm.create Target.x64 in
        let l = Asm.new_label a in
        Asm.jmp a l;
        Asm.emit a Minst.Nop;
        Asm.bind a l;
        Asm.emit a Minst.Ret;
        let blob = Asm.finish a in
        let insts, _ = Emu.decode_all Target.x64 blob in
        (match insts.(0) with
        | Minst.Jmp tgt ->
            check Alcotest.int "targets ret" (Asm.label_offset a l) tgt
        | _ -> Alcotest.fail "expected jmp");
        check Alcotest.bool "jump lands on ret" true
          (match insts.(Array.length insts - 1) with Minst.Ret -> true | _ -> false));
    Alcotest.test_case "labels: backward jcc" `Quick (fun () ->
        let a = Asm.create Target.a64 in
        let l = Asm.new_label a in
        Asm.bind a l;
        Asm.emit a Minst.Nop;
        Asm.jcc a Minst.Slt l;
        let blob = Asm.finish a in
        let insts, _ = Emu.decode_all Target.a64 blob in
        match insts.(1) with
        | Minst.Jcc (Minst.Slt, 0) -> ()
        | i -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" (Minst.pp Target.a64) i));
    Alcotest.test_case "patch_imm32 rewrites encoded constant" `Quick (fun () ->
        let a = Asm.create Target.x64 in
        (* a large placeholder forces the imm32 encoding, as DirectEmit's
           frame patching relies on *)
        Asm.emit a (Minst.Alu_ri (Minst.Sub, 4 (* rsp *), 0x11223344L));
        let blob0 = Asm.finish a in
        let pos = Bytes.length blob0 - 4 in
        Asm.patch_imm32 a pos 4096;
        let blob = Asm.finish a in
        let insts, _ = Emu.decode_all Target.x64 blob in
        match insts.(0) with
        | Minst.Alu_ri (Minst.Sub, 4, v) -> check Alcotest.int64 "imm" 4096L v
        | _ -> Alcotest.fail "decode");
    Alcotest.test_case "x64 indexed loads and base-less lea round trip through registration"
      `Quick (fun () ->
        let forms =
          List.concat_map
            (fun scale ->
              List.concat_map
                (fun off ->
                  Minst.Lea { dst = 3; base = -1; index = 9; scale; off }
                  :: List.concat_map
                       (fun base ->
                         List.concat_map
                           (fun size ->
                             List.map
                               (fun sext ->
                                 Minst.Ldx { dst = 15; base; index = 6; scale; off; size; sext })
                               [ false; true ])
                           [ 1; 2; 4; 8 ])
                       [ -1; 12 ])
                [ 0; 60096; -8; -0x8000_0000; 0x7FFF_FFFF ])
            [ 1; 2; 4; 8 ]
        in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) forms;
        let blob = Asm.finish a in
        (* every form is 8 bytes, as x86-64's SIB-addressed mov and lea
           with a disp32 *)
        check Alcotest.int "bytes" (8 * List.length forms) (Bytes.length blob);
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        ignore (Emu.register_code emu blob);
        check Alcotest.bool "decode_all gives the forms back" true
          (Array.to_list (fst (Emu.decode_all Target.x64 blob)) = forms);
        List.iter
          (fun i ->
            let a = Asm.create Target.a64 in
            match Asm.emit a i with
            | exception Asm.Encode_error _ -> ()
            | () ->
                Alcotest.failf "a64 encoded %s" (Format.asprintf "%a" (Minst.pp Target.x64) i))
          [ Minst.Ldx { dst = 1; base = -1; index = 3; scale = 4; off = 16; size = 4; sext = true };
            Minst.Lea { dst = 1; base = -1; index = 3; scale = 8; off = 64 } ]);
    Alcotest.test_case "a64 register-offset loads round trip; other indexed shapes refuse"
      `Quick (fun () ->
        let forms =
          List.concat_map
            (fun size ->
              List.concat_map
                (fun scale ->
                  List.map
                    (fun sext ->
                      Minst.Ldx { dst = 1; base = 2; index = 3; scale; off = 0; size; sext })
                    [ false; true ])
                (List.sort_uniq compare [ 1; size ]))
            [ 1; 2; 4; 8 ]
        in
        let a = Asm.create Target.a64 in
        List.iter (Asm.emit a) forms;
        let blob = Asm.finish a in
        (* one word each, as [ldr Xt, [Xn, Xm, lsl #k]] *)
        check Alcotest.int "bytes" (4 * List.length forms) (Bytes.length blob);
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.a64 in
        ignore (Emu.register_code emu blob);
        check Alcotest.bool "decode_all gives the forms back" true
          (Array.to_list (fst (Emu.decode_all Target.a64 blob)) = forms);
        List.iter
          (fun i ->
            let a = Asm.create Target.a64 in
            match Asm.emit a i with
            | exception Asm.Encode_error _ -> ()
            | () ->
                Alcotest.failf "a64 encoded %s" (Format.asprintf "%a" (Minst.pp Target.a64) i))
          [ (* no base *)
            Minst.Ldx { dst = 1; base = -1; index = 3; scale = 8; off = 0; size = 8; sext = false };
            (* a displacement *)
            Minst.Ldx { dst = 1; base = 2; index = 3; scale = 8; off = 8; size = 8; sext = false };
            (* a shift that is neither 0 nor log2 of the size *)
            Minst.Ldx { dst = 1; base = 2; index = 3; scale = 8; off = 0; size = 4; sext = true };
            Minst.Ldx { dst = 1; base = 2; index = 3; scale = 2; off = 0; size = 8; sext = false } ]);
    Alcotest.test_case "decode error on garbage" `Quick (fun () ->
        let b = Bytes.make 1 '\xFF' in
        match Emu.decode_all Target.x64 b with
        | exception Asm.Decode_error _ -> ()
        | _ -> Alcotest.fail "expected decode error");
  ]

let props =
  [
    prop "x64 single-instruction roundtrip" gen_x64_inst (fun i ->
        exact_roundtrip Target.x64 i);
    prop "a64 single-instruction roundtrip" gen_a64_inst (fun i ->
        exact_roundtrip Target.a64 i);
    prop "x64 stream roundtrip" QCheck2.Gen.(list_size (int_range 1 40) gen_x64_inst)
      (fun insts -> roundtrip Target.x64 insts = insts);
    prop "a64 stream roundtrip" QCheck2.Gen.(list_size (int_range 1 40) gen_a64_inst)
      (fun insts -> roundtrip Target.a64 insts = insts);
    prop "defs_uses stable under map_regs id" gen_x64_inst (fun i ->
        Minst.defs_uses (Minst.map_regs (fun r -> r) i) = Minst.defs_uses i);
  ]

let suite = unit_cases @ props
