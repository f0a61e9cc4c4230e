(* Emulator semantics: arithmetic, flags, memory, control flow, calls into
   the runtime registry, and the cycle model — on both targets. *)

open Qcomp_vm

let check = Alcotest.check

(* assemble, load, call with args, return primary result *)
let run target insts ~args =
  let emu = Emu.create ~mem_size:(1 lsl 20) target in
  let a = Asm.create target in
  List.iter (Asm.emit a) insts;
  let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
  fst (Emu.call emu ~addr:base ~args)

let x64_args = Target.x64.Target.arg_regs
let a64_args = Target.a64.Target.arg_regs

let suite =
  [
    Alcotest.test_case "x64 add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 40L; 2L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "42" 42L r);
    Alcotest.test_case "a64 three-address add" `Quick (fun () ->
        let r =
          run Target.a64 ~args:[| 40L; 2L |]
            [ Minst.Alu_rrr (Minst.Add, 0, a64_args.(0), a64_args.(1)); Minst.Ret ]
        in
        check Alcotest.int64 "42" 42L r);
    Alcotest.test_case "x64 flags: sub sets zero" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 7L; 7L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Cmp_rr (0, x64_args.(1));
              Minst.Setcc (Minst.Eq, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "eq" 1L r);
    Alcotest.test_case "signed overflow flag on add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| Int64.max_int; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Setcc (Minst.Ov, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "overflowed" 1L r);
    Alcotest.test_case "no overflow on benign add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 1L; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Setcc (Minst.Ov, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "clean" 0L r);
    Alcotest.test_case "adc/sbb carry chain (128-bit add)" `Quick (fun () ->
        (* lo=all-ones + 1 carries into hi *)
        let r =
          run Target.x64 ~args:[| -1L; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_ri (Minst.Add, 0, 1L);
              (* carry set; hi = 0 + 0 + carry *)
              Minst.Mov_ri (1, 0L);
              Minst.Alu_ri (Minst.Adc, 1, 0L);
              Minst.Mov_rr (0, 1);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "carried" 1L r);
    Alcotest.test_case "mul_wide rdx:rax" `Quick (fun () ->
        (* (2^32)^2 = 2^64: rax = 0, rdx = 1 *)
        let r =
          run Target.x64 ~args:[| 0x1_0000_0000L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Mov_rr (1, x64_args.(0));
              Minst.Mul_wide { signed = false; src = 1 };
              Minst.Mov_rr (0, 2) (* rdx *);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "high word" 1L r);
    Alcotest.test_case "x64 div and remainder" `Quick (fun () ->
        let insts want_rem =
          [
            Minst.Mov_rr (0, x64_args.(0));
            Minst.Mov_ri (2, 0L);
            Minst.Div { signed = false; src = x64_args.(1) };
            Minst.Mov_rr (0, if want_rem then 2 else 0);
            Minst.Ret;
          ]
        in
        check Alcotest.int64 "quot" 6L (run Target.x64 ~args:[| 45L; 7L |] (insts false));
        check Alcotest.int64 "rem" 3L (run Target.x64 ~args:[| 45L; 7L |] (insts true)));
    Alcotest.test_case "a64 div + msub remainder idiom" `Quick (fun () ->
        let r =
          run Target.a64 ~args:[| 45L; 7L |]
            [
              Minst.Div_rrr { signed = true; dst = 2; a = a64_args.(0); b = a64_args.(1) };
              Minst.Msub { dst = 0; a = 2; b = a64_args.(1); c = a64_args.(0) };
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "rem" 3L r);
    Alcotest.test_case "load/store roundtrip with sizes" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        (* store arg1 byte at [arg0], load back sign-extended *)
        List.iter (Asm.emit a)
          [
            Minst.St { src = x64_args.(1); base = x64_args.(0); off = 0; size = 1 };
            Minst.Ld { dst = 0; base = x64_args.(0); off = 0; size = 1; sext = true };
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let buf = Memory.alloc (Emu.memory emu) 16 in
        let r, _ = Emu.call emu ~addr:base ~args:[| Int64.of_int buf; 0xFFL |] in
        check Alcotest.int64 "sext byte" (-1L) r);
    Alcotest.test_case "crc32 instruction matches Hashes" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 0x1234L; 0x5678L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Crc32_rr (0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "crc" (Qcomp_support.Hashes.crc32c 0x1234L 0x5678L) r);
    Alcotest.test_case "branches: loop sums 1..n" `Quick (fun () ->
        (* while (n > 0) { acc += n; n--; } return acc *)
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        let head = Asm.new_label a and exit = Asm.new_label a in
        Asm.emit a (Minst.Mov_ri (0, 0L));
        Asm.bind a head;
        Asm.emit a (Minst.Cmp_ri (x64_args.(0), 0L));
        Asm.jcc a Minst.Sle exit;
        Asm.emit a (Minst.Alu_rr (Minst.Add, 0, x64_args.(0)));
        Asm.emit a (Minst.Alu_ri (Minst.Sub, x64_args.(0), 1L));
        Asm.jmp a head;
        Asm.bind a exit;
        Asm.emit a Minst.Ret;
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let r, _ = Emu.call emu ~addr:base ~args:[| 10L |] in
        check Alcotest.int64 "55" 55L r);
    Alcotest.test_case "runtime dispatch: OCaml function callable" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let addr =
          Emu.add_runtime emu "double_it" (fun e ->
              let v = Emu.reg e (Emu.arg_reg e 0) in
              Emu.set_reg e Target.x64.Target.ret_regs.(0) (Int64.mul v 2L))
        in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a)
          [
            Minst.Mov_ri (1, addr);
            Minst.Call_ind 1;
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let r, _ = Emu.call emu ~addr:base ~args:[| 21L |] in
        check Alcotest.int64 "doubled" 42L r);
    Alcotest.test_case "runtime call balances the stack" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let addr = Emu.add_runtime emu "noop" (fun _ -> ()) in
        let a = Asm.create Target.x64 in
        let sp = Target.x64.Target.sp in
        List.iter (Asm.emit a)
          [
            Minst.Mov_rr (0, sp);
            Minst.Mov_ri (1, addr);
            Minst.Call_ind 1;
            Minst.Call_ind 1;
            Minst.Alu_rr (Minst.Sub, 0, sp);
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let r, _ = Emu.call emu ~addr:base ~args:[||] in
        check Alcotest.int64 "sp preserved" 0L r);
    Alcotest.test_case "brk raises Trap" `Quick (fun () ->
        match run Target.x64 ~args:[||] [ Minst.Brk 7 ] with
        | exception Emu.Trap _ -> ()
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "jump to unmapped address traps" `Quick (fun () ->
        match
          run Target.x64 ~args:[||]
            [ Minst.Mov_ri (1, 0xDEAD000L); Minst.Jmp_ind 1 ]
        with
        | exception Emu.Trap _ -> ()
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "cycles accumulate monotonically" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) [ Minst.Mov_ri (0, 1L); Minst.Ret ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        let c1 = Emu.cycles emu in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        check Alcotest.bool "grows" true (Emu.cycles emu > c1);
        Emu.reset_counters emu;
        check Alcotest.int "reset" 0 (Emu.cycles emu));
    Alcotest.test_case "a64 csel both ways" `Quick (fun () ->
        let prog c =
          [
            Minst.Cmp_rr (a64_args.(0), a64_args.(1));
            Minst.Csel { cond = c; dst = 0; a = a64_args.(0); b = a64_args.(1) };
            Minst.Ret;
          ]
        in
        check Alcotest.int64 "min" 3L (run Target.a64 ~args:[| 3L; 9L |] (prog Minst.Slt));
        check Alcotest.int64 "max" 9L (run Target.a64 ~args:[| 3L; 9L |] (prog Minst.Sgt)));
    Alcotest.test_case "float ops on bit patterns" `Quick (fun () ->
        let bits f = Int64.bits_of_float f in
        let r =
          run Target.x64 ~args:[| bits 1.5; bits 2.25 |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Falu_rr (Minst.Fadd, 0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check (Alcotest.float 1e-9) "sum" 3.75 (Int64.float_of_bits r));
    Alcotest.test_case "cvt int<->float" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 7L |]
            [
              Minst.Cvt_si2f (0, x64_args.(0));
              Minst.Cvt_f2si (0, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "roundtrip" 7L r);
    Alcotest.test_case "page_align boundary sizes" `Quick (fun () ->
        check Alcotest.int "0" 0 (Emu.page_align 0);
        check Alcotest.int "1" 4096 (Emu.page_align 1);
        check Alcotest.int "4096" 4096 (Emu.page_align 4096);
        check Alcotest.int "4097" 8192 (Emu.page_align 4097));
    Alcotest.test_case "code region release recycles the address range" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let blob v =
          let a = Asm.create Target.x64 in
          List.iter (Asm.emit a) [ Minst.Mov_ri (0, v); Minst.Ret ];
          Asm.finish a
        in
        let r1 = Emu.register_code emu (blob 7L) in
        check Alcotest.bool "live" true (Code_region.is_live r1);
        check Alcotest.int "accounted" (Code_region.size r1)
          (Emu.live_code_bytes emu);
        Emu.release_code emu r1;
        check Alcotest.bool "dead" false (Code_region.is_live r1);
        check Alcotest.int "live zero" 0 (Emu.live_code_bytes emu);
        check Alcotest.int "freed counted" (Code_region.size r1)
          (Emu.freed_code_bytes emu);
        (* same-size registration reuses the released span *)
        let r2 = Emu.register_code emu (blob 9L) in
        check Alcotest.int "address recycled" (Code_region.base r1)
          (Code_region.base r2);
        let v, _ = Emu.call emu ~addr:(Code_region.base r2) ~args:[||] in
        check Alcotest.int64 "recycled region executes" 9L v;
        check Alcotest.int "peak is one region"
          (Code_region.size r1)
          (Emu.peak_code_bytes emu));
    Alcotest.test_case "fetch from freed region traps as use-after-free" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) [ Minst.Mov_ri (0, 1L); Minst.Ret ];
        let r = Emu.register_code emu (Asm.finish a) in
        let base = Code_region.base r in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        Emu.release_code emu r;
        (match Emu.call emu ~addr:base ~args:[||] with
        | exception Emu.Trap msg ->
            check Alcotest.bool
              ("trap names use-after-free: " ^ msg)
              true
              (String.length msg >= 14 && String.sub msg 0 14 = "use-after-free")
        | _ -> Alcotest.fail "expected use-after-free trap");
        match Emu.release_code emu r with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument on double release");
    Alcotest.test_case "runtime slots recycle and trap after removal" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a1 = Emu.add_runtime emu "f1" (fun _ -> ()) in
        Emu.remove_runtime emu a1;
        (match Emu.call emu ~addr:(Int64.to_int a1) ~args:[||] with
        | exception Emu.Trap msg ->
            check Alcotest.bool
              ("trap names use-after-free: " ^ msg)
              true
              (String.length msg >= 14 && String.sub msg 0 14 = "use-after-free")
        | _ -> Alcotest.fail "expected use-after-free trap");
        (* freed slot is reused by the next registration and works again *)
        let a2 = Emu.add_runtime emu "f2" (fun _ -> ()) in
        check Alcotest.int64 "slot recycled" a1 a2;
        ignore (Emu.call emu ~addr:(Int64.to_int a2) ~args:[||]);
        match Emu.remove_runtime emu a2 with
        | () -> (
            match Emu.remove_runtime emu a2 with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.fail "expected Invalid_argument on double remove"));
    Alcotest.test_case "two-domain register/release stress" `Quick (fun () ->
        (* two domains each hammer the shared code registry through their
           own execution context: register a blob, execute it, release it.
           Freed spans from one domain get recycled by the other; the
           shared live/freed gauges must balance exactly at the end. *)
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let iters = 200 in
        let blob v =
          let a = Asm.create Target.x64 in
          List.iter (Asm.emit a) [ Minst.Mov_ri (0, v); Minst.Ret ];
          Asm.finish a
        in
        let registered = Atomic.make 0 in
        let failure = Atomic.make None in
        let worker seed () =
          let ctx = Emu.context emu in
          for i = 1 to iters do
            let v = Int64.of_int ((seed * 1_000_000) + i) in
            let r = Emu.register_code ctx (blob v) in
            ignore (Atomic.fetch_and_add registered (Code_region.size r));
            let got, _ = Emu.call ctx ~addr:(Code_region.base r) ~args:[||] in
            if got <> v then
              Atomic.set failure
                (Some (Printf.sprintf "domain %d iter %d: %Ld <> %Ld" seed i got v));
            Emu.release_code ctx r
          done
        in
        let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
        Domain.join d1;
        Domain.join d2;
        (match Atomic.get failure with
        | Some msg -> Alcotest.fail msg
        | None -> ());
        check Alcotest.int "all code released" 0 (Emu.live_code_bytes emu);
        check Alcotest.int "freed equals registered" (Atomic.get registered)
          (Emu.freed_code_bytes emu));
    Alcotest.test_case "contexts: isolated registers and stacks across domains"
      `Quick (fun () ->
        (* one shared loop blob, executed simultaneously from two contexts
           with different arguments: registers, flags and call stacks are
           per-context, so both must compute their own sums *)
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let a = Asm.create Target.x64 in
        let head = Asm.new_label a and exit = Asm.new_label a in
        Asm.emit a (Minst.Mov_ri (0, 0L));
        Asm.bind a head;
        Asm.emit a (Minst.Cmp_ri (x64_args.(0), 0L));
        Asm.jcc a Minst.Sle exit;
        Asm.emit a (Minst.Alu_rr (Minst.Add, 0, x64_args.(0)));
        Asm.emit a (Minst.Alu_ri (Minst.Sub, x64_args.(0), 1L));
        Asm.jmp a head;
        Asm.bind a exit;
        Asm.emit a Minst.Ret;
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let sum n = Int64.of_int (n * (n + 1) / 2) in
        let bad = Atomic.make 0 in
        let worker n () =
          let ctx = Emu.context emu in
          for _ = 1 to 500 do
            let r, _ = Emu.call ctx ~addr:base ~args:[| Int64.of_int n |] in
            if r <> sum n then ignore (Atomic.fetch_and_add bad 1)
          done
        in
        let d1 = Domain.spawn (worker 100) and d2 = Domain.spawn (worker 37) in
        Domain.join d1;
        Domain.join d2;
        check Alcotest.int "no cross-context corruption" 0 (Atomic.get bad));
    Alcotest.test_case "memory claim pins spans above the break" `Quick
      (fun () ->
        let m = Memory.create (1 lsl 20) in
        let raises f =
          match f () with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let below = Memory.alloc m 64 in
        (* pin a span well above the break, as a snapshot load would *)
        let addr = below + 4096 in
        Memory.claim m ~addr ~size:16 ~align:16;
        Memory.store64 m addr 0xBEEFL;
        (* the bump allocator must route around the claimed span *)
        for _ = 1 to 1024 do
          let a = Memory.alloc m 64 in
          if a < addr + 16 && addr < a + 64 then
            Alcotest.failf "alloc 0x%x overlaps the claimed span 0x%x" a addr
        done;
        check Alcotest.int64 "claimed bytes survive the alloc storm" 0xBEEFL
          (Memory.load64 m addr);
        (* every invalid claim fails loud *)
        check Alcotest.bool "below the break" true
          (raises (fun () -> Memory.claim m ~addr:below ~size:16 ~align:16));
        check Alcotest.bool "double claim" true
          (raises (fun () -> Memory.claim m ~addr ~size:16 ~align:16));
        check Alcotest.bool "overlapping claim" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 8) ~size:16 ~align:8));
        check Alcotest.bool "misaligned" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 33) ~size:8 ~align:8));
        check Alcotest.bool "zero size" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 64) ~size:0 ~align:8));
        check Alcotest.bool "out of range" true
          (raises (fun () ->
               Memory.claim m ~addr:((1 lsl 20) - 8) ~size:16 ~align:8)));
    Alcotest.test_case "taken branch into the middle of an instruction traps"
      `Quick (fun () ->
        (* byte offset 1 lies inside the first instruction; the branch is
           resolved at registration but must trap only when taken *)
        let program branch =
          [
            Minst.Mov_ri (0, 7L);
            Minst.Cmp_ri (x64_args.(0), 0L);
            branch;
            Minst.Ret;
          ]
        in
        List.iter
          (fun (what, branch) ->
            let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
            let a = Asm.create Target.x64 in
            List.iter (Asm.emit a) (program branch);
            let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
            let want = Printf.sprintf "jump into middle of instruction at 0x%x" (base + 1) in
            (match Emu.call emu ~addr:base ~args:[| 1L |] with
            | exception Emu.Trap msg -> check Alcotest.string what want msg
            | _ -> Alcotest.failf "%s: expected a trap" what);
            if what = "jcc" then
              check Alcotest.int64 "not taken: no trap" 7L
                (fst (Emu.call emu ~addr:base ~args:[| 0L |])))
          [
            ("jcc", Minst.Jcc (Minst.Ne, 1));
            ("jmp", Minst.Jmp 1);
            ("call", Minst.Call_rel 1);
          ]);
    Alcotest.test_case "fuel exhausted at exactly fuel + 1 instructions" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        let head = Asm.new_label a in
        Asm.bind a head;
        Asm.jmp a head;
        let spin = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a)
          [ Minst.Mov_ri (0, 1L); Minst.Alu_ri (Minst.Add, 0, 1L); Minst.Ret ];
        let three = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        emu.Emu.fuel <- 10;
        (match Emu.call emu ~addr:spin ~args:[||] with
        | exception Emu.Trap msg -> check Alcotest.string "trap" "fuel exhausted" msg
        | _ -> Alcotest.fail "expected fuel exhaustion");
        check Alcotest.int "instructions" 11 (Emu.instructions_executed emu);
        check Alcotest.int "cycles" 11 (Emu.cycles emu);
        (* a run of exactly [fuel] instructions completes *)
        Emu.reset_counters emu;
        emu.Emu.fuel <- 3;
        check Alcotest.int64 "within fuel" 2L (fst (Emu.call emu ~addr:three ~args:[||]));
        check Alcotest.int "three" 3 (Emu.instructions_executed emu);
        Emu.reset_counters emu;
        emu.Emu.fuel <- 2;
        match Emu.call emu ~addr:three ~args:[||] with
        | exception Emu.Trap msg -> check Alcotest.string "one short" "fuel exhausted" msg
        | _ -> Alcotest.fail "expected fuel exhaustion");
    Alcotest.test_case "call and return across two registered modules" `Quick
      (fun () ->
        List.iter
          (fun (target : Target.t) ->
            let emu = Emu.create ~mem_size:(1 lsl 20) target in
            let args = target.Target.arg_regs in
            (* callee module: ret0 = arg0 + 100 *)
            let a = Asm.create target in
            List.iter (Asm.emit a)
              [
                Minst.Mov_rr (0, args.(0));
                Minst.Alu_ri (Minst.Add, 0, 100L);
                Minst.Ret;
              ];
            let callee = Code_region.base (Emu.register_code emu (Asm.finish a)) in
            let caller call =
              let a = Asm.create target in
              (match target.Target.arch with
              | Target.X64 ->
                  List.iter (Asm.emit a)
                    [ call; Minst.Alu_rr (Minst.Add, 0, 0); Minst.Ret ]
              | Target.A64 ->
                  (* the call clobbers the link register: keep the caller's *)
                  List.iter (Asm.emit a)
                    [
                      Minst.Mov_rr (19, Target.lr);
                      call;
                      Minst.Alu_rrr (Minst.Add, 0, 0, 0);
                      Minst.Mov_rr (Target.lr, 19);
                      Minst.Ret;
                    ]);
              Asm.finish a
            in
            let indirect =
              Code_region.base
                (Emu.register_code emu
                   (caller (Minst.Call_ind target.Target.scratch2)))
            in
            (* rel call out of its own blob: the registration-time target is
               unresolved, so the taken call goes through the address map *)
            let size = Bytes.length (caller (Minst.Call_rel 0)) in
            let at = Emu.next_code_addr emu ~size in
            let rel =
              Code_region.base
                (Emu.register_code emu (caller (Minst.Call_rel (callee - at))))
            in
            check Alcotest.int "predicted base" at rel;
            let run base =
              Emu.set_reg emu target.Target.scratch2 (Int64.of_int callee);
              fst (Emu.call emu ~addr:base ~args:[| 5L |])
            in
            check Alcotest.int64 (target.Target.name ^ " indirect") 210L (run indirect);
            check Alcotest.int64 (target.Target.name ^ " rel") 210L (run rel))
          [ Target.x64; Target.a64 ]);
    Alcotest.test_case "a64 movz/movk build a 64-bit constant" `Quick (fun () ->
        let r =
          run Target.a64 ~args:[||]
            [
              Minst.Movz (0, 0x1234, 1);
              Minst.Movk (0, 0xABCD, 0);
              Minst.Movk (0, 0xFFFF, 3);
              Minst.Movk (0, 0x0042, 1);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "constant" 0xFFFF_0000_0042_ABCDL r);
    Alcotest.test_case "lea with and without an index" `Quick (fun () ->
        let lea index =
          run Target.x64 ~args:[| 1000L; 7L |]
            [
              Minst.Lea { dst = 0; base = x64_args.(0); index; scale = 8; off = -3 };
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "indexed" 1053L (lea x64_args.(1));
        check Alcotest.int64 "no index" 997L (lea (-1)));
    Alcotest.test_case "setcc, and the flags shifts and ror set" `Quick
      (fun () ->
        (* [cmp a, b] then [op d, n]: the shift/rotate rewrites zf/sf and
           keeps cf/ovf from the compare; six setcc results are packed
           into rax, one bit each *)
        let flags ~a ~b op v n =
          let conds = [ Minst.Eq; Slt; Ult; Ov; Sgt; Uge ] in
          let regs = [ 1; 3; 8; 9; 12; 13 ] in
          run Target.x64 ~args:[||]
            ([
               Minst.Mov_ri (14, a);
               Minst.Cmp_ri (14, b);
               Minst.Mov_ri (15, v);
               Minst.Alu_ri (op, 15, Int64.of_int n);
             ]
            @ List.map2 (fun c r -> Minst.Setcc (c, r)) conds regs
            @ [ Minst.Mov_ri (0, 0L) ]
            @ List.concat
                (List.mapi
                   (fun k r ->
                     [
                       Minst.Alu_ri (Minst.Shl, r, Int64.of_int k);
                       Minst.Alu_rr (Minst.Or, 0, r);
                     ])
                   regs)
            @ [ Minst.Ret ])
        in
        let bits eq slt ult ov sgt uge =
          List.fold_left
            (fun (acc, k) b -> ((if b then acc lor (1 lsl k) else acc), k + 1))
            (0, 0) [ eq; slt; ult; ov; sgt; uge ]
          |> fst |> Int64.of_int
        in
        (* 1 - 2 borrows (cf) without signed overflow; shl to zero sets zf *)
        check Alcotest.int64 "shl to zero"
          (bits true false true false false false)
          (flags ~a:1L ~b:2L Minst.Shl Int64.min_int 1);
        (* ror into the sign bit: sf set, zf clear, cf kept *)
        check Alcotest.int64 "ror negative"
          (bits false true true false false false)
          (flags ~a:1L ~b:2L Minst.Ror 1L 1);
        (* min_int - 1 overflows (ovf) without a borrow; shr leaves a
           positive non-zero value *)
        check Alcotest.int64 "shr positive, overflow kept"
          (bits false true false true false true)
          (flags ~a:Int64.min_int ~b:1L Minst.Shr (-1L) 4);
        (* sar keeps the sign; ror by 0 leaves the value (and sets zf/sf) *)
        check Alcotest.int64 "sar negative"
          (bits false true false false false true)
          (flags ~a:5L ~b:3L Minst.Sar (-64L) 3);
        check Alcotest.int64 "ror by zero"
          (bits false false false false true true)
          (flags ~a:5L ~b:3L Minst.Ror 9L 0));
    Alcotest.test_case "wide and overflow-checked multiplies match I128" `Quick
      (fun () ->
        let module I = Qcomp_support.I128 in
        let edge =
          [ 0L; 1L; -1L; 2L; -2L; 3L; Int64.max_int; Int64.min_int; 0xFFFF_FFFFL;
            0x1_0000_0000L; -0x1_0000_0000L; 0x7FFF_FFFFL; 0x9E37_79B9_7F4A_7C15L ]
        in
        let rng = Random.State.make [| 13 |] in
        let rand = List.init 40 (fun _ -> Random.State.bits64 rng) in
        let vals = edge @ rand in
        let hi p = I.to_int64 (I.shift_right_logical p 64) in
        let mulhi target signed a b =
          match target.Target.arch with
          | Target.X64 ->
              run target ~args:[| a; b |]
                [
                  Minst.Mov_rr (0, x64_args.(0));
                  Minst.Mul_wide { signed; src = x64_args.(1) };
                  Minst.Mov_rr (0, 2);
                  Minst.Ret;
                ]
          | Target.A64 ->
              run target ~args:[| a; b |]
                [ Minst.Mul_hi { signed; dst = 0; a = 0; b = 1 }; Minst.Ret ]
        in
        let mul_ov a b =
          run Target.x64 ~args:[| a; b |]
            [
              Minst.Alu_rr (Minst.Mul, x64_args.(0), x64_args.(1));
              Minst.Setcc (Minst.Ov, 0);
              Minst.Ret;
            ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let s = I.smul64_wide a b and u = I.umul64_wide a b in
                let name = Printf.sprintf "%Ld * %Ld" a b in
                List.iter
                  (fun target ->
                    check Alcotest.int64 ("signed hi " ^ name) (hi s) (mulhi target true a b);
                    check Alcotest.int64 ("unsigned hi " ^ name) (hi u)
                      (mulhi target false a b))
                  [ Target.x64; Target.a64 ];
                let ov = hi s <> Int64.shift_right (I.to_int64 s) 63 in
                check Alcotest.int64 ("overflow " ^ name)
                  (if ov then 1L else 0L) (mul_ov a b))
              vals)
          vals);
    Alcotest.test_case "crc32 instruction matches Hashes.crc32c" `Quick
      (fun () ->
        let rng = Random.State.make [| 29 |] in
        for _ = 1 to 200 do
          let acc = Random.State.bits64 rng and x = Random.State.bits64 rng in
          check Alcotest.int64 "x64"
            (Qcomp_support.Hashes.crc32c acc x)
            (run Target.x64 ~args:[| acc; x |]
               [
                 Minst.Mov_rr (0, x64_args.(0));
                 Minst.Crc32_rr (0, x64_args.(1));
                 Minst.Ret;
               ]);
          check Alcotest.int64 "a64"
            (Qcomp_support.Hashes.crc32c acc x)
            (run Target.a64 ~args:[| acc; x |] [ Minst.Crc32_rrr (0, 0, 1); Minst.Ret ])
        done);
    Alcotest.test_case "the execute loop allocates nothing per instruction"
      `Quick (fun () ->
        (* a loop over loads, stores, indexed lea, ALU ops with flags,
           multiplies, crc32, float ops, setcc/csel, a local call and
           branches; two runs of different lengths must allocate the same
           number of words (only the per-call argument and result boxes) *)
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let buf = Memory.alloc (Emu.memory emu) 64 in
        let a = Asm.create Target.x64 in
        let head = Asm.new_label a and exit = Asm.new_label a in
        let fn = Asm.new_label a in
        let n = x64_args.(0) and p = x64_args.(1) in
        List.iter (Asm.emit a) [ Minst.Mov_ri (3, 0L) ];
        Asm.bind a head;
        Asm.emit a (Minst.Cmp_ri (n, 0L));
        Asm.jcc a Minst.Sle exit;
        List.iter (Asm.emit a)
          [
            Minst.St { src = n; base = p; off = 8; size = 8 };
            Minst.Ld { dst = 1; base = p; off = 8; size = 4; sext = true };
            Minst.Lea { dst = 8; base = p; index = 1; scale = 1; off = 0 };
            Minst.Alu_rr (Minst.Add, 3, 1);
            Minst.Alu_ri (Minst.Mul, 8, 0x9E37L);
            Minst.Alu_rr (Minst.Xor, 3, 8);
            Minst.Crc32_rr (3, 8);
            Minst.Mov_rr (0, 3);
            Minst.Mul_wide { signed = false; src = 8 };
            Minst.Ext { dst = 9; src = 0; bits = 16; signed = true };
            Minst.Cvt_si2f (12, 9);
            Minst.Falu_rr (Minst.Fmul, 12, 12);
            Minst.Fcmp_rr (12, 12);
            Minst.Setcc (Minst.Eq, 13);
            Minst.Csel { cond = Minst.Ne; dst = 13; a = 13; b = 9 };
          ];
        Asm.call_label a fn;
        Asm.emit a (Minst.Alu_ri (Minst.Sub, n, 1L));
        Asm.jmp a head;
        Asm.bind a exit;
        List.iter (Asm.emit a) [ Minst.Mov_rr (0, 3); Minst.Ret ];
        Asm.bind a fn;
        List.iter (Asm.emit a) [ Minst.Alu_ri (Minst.Ror, 3, 7L); Minst.Ret ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let words iters =
          let args = [| Int64.of_int iters; Int64.of_int buf |] in
          let w0 = Gc.minor_words () in
          ignore (Emu.call emu ~addr:base ~args);
          Gc.minor_words () -. w0
        in
        ignore (words 10);
        let short = words 10 in
        let i0 = Emu.instructions_executed emu in
        let long = words 10_000 in
        check Alcotest.bool "the long run executes many instructions" true
          (Emu.instructions_executed emu - i0 > 200_000);
        check (Alcotest.float 0.) "words allocated do not grow with the run" short long);
    Alcotest.test_case "release_context frees the stack once" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) [ Minst.Mov_ri (0, 3L); Minst.Ret ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let mem = Emu.memory emu in
        let live0 = Memory.live_data_bytes mem in
        let ctx = Emu.context emu in
        check Alcotest.bool "stack carved" true (Memory.live_data_bytes mem > live0);
        check Alcotest.int64 "runs" 3L (fst (Emu.call ctx ~addr:base ~args:[||]));
        Emu.release_context ctx;
        check Alcotest.int "stack freed" live0 (Memory.live_data_bytes mem);
        let rejects what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        rejects "double release" (fun () -> Emu.release_context ctx);
        rejects "run after release" (fun () -> Emu.call ctx ~addr:base ~args:[||]);
        rejects "primary context" (fun () -> Emu.release_context emu);
        (* a recycled stack serves the next context *)
        let ctx2 = Emu.context emu in
        check Alcotest.int64 "next context runs" 3L (fst (Emu.call ctx2 ~addr:base ~args:[||]));
        Emu.release_context ctx2;
        check Alcotest.int "freed again" live0 (Memory.live_data_bytes mem));
    Alcotest.test_case "taken direct branches out of their blob trap as unmapped"
      `Quick (fun () ->
        (* the target lies outside the blob: the branch resolves through the
           address space when taken, like an indirect one *)
        List.iter
          (fun (target : Target.t) ->
            List.iter
              (fun (what, branch, off) ->
                let emu = Emu.create ~mem_size:(1 lsl 20) target in
                let a = Asm.create target in
                List.iter (Asm.emit a)
                  [
                    Minst.Mov_ri (0, 7L);
                    Minst.Cmp_ri (target.Target.arg_regs.(0), 0L);
                    branch;
                    Minst.Ret;
                  ];
                let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
                let want = Printf.sprintf "jump to unmapped address 0x%x" (base + off) in
                let name = target.Target.name ^ " " ^ what in
                match Emu.call emu ~addr:base ~args:[| 1L |] with
                | exception Emu.Trap msg -> check Alcotest.string name want msg
                | _ -> Alcotest.failf "%s: expected a trap" name)
              [
                ("jmp +100000", Minst.Jmp 100_000, 100_000);
                ("jmp -8", Minst.Jmp (-8), -8);
                ("taken jcc +4000", Minst.Jcc (Minst.Ne, 4000), 4000);
              ])
          [ Target.x64; Target.a64 ]);
    Alcotest.test_case "malformed blobs fail at registration" `Quick (fun () ->
        let blob target insts =
          let a = Asm.create target in
          List.iter (Asm.emit a) insts;
          Asm.finish a
        in
        let truncated b = Bytes.sub b 0 (Bytes.length b - 1) in
        let ldx ?(dst = 0) ?(base = -1) ?(index = 2) () =
          Minst.Ldx { dst; base; index; scale = 8; off = -8; size = 8; sext = false }
        in
        (* the scale code is the fourth byte of every indexed form *)
        let bad_scale i code =
          let b = blob Target.x64 [ Minst.Nop; i ] in
          Bytes.set b 4 (Char.chr code);
          b
        in
        List.iter
          (fun (what, (target : Target.t), code) ->
            let emu = Emu.create ~mem_size:(1 lsl 20) target in
            ignore (Emu.register_code emu (blob target [ Minst.Ret ]));
            let live = Emu.live_code_bytes emu in
            let next = Emu.next_code_addr emu ~size:(Bytes.length code) in
            (match Emu.register_code emu code with
            | exception Asm.Decode_error _ -> ()
            | _ -> Alcotest.failf "%s: expected Decode_error" what);
            check Alcotest.int (what ^ ": live code") live (Emu.live_code_bytes emu);
            check Alcotest.int (what ^ ": next address") next
              (Emu.next_code_addr emu ~size:(Bytes.length code)))
          [
            ( "x64 truncated final instruction",
              Target.x64,
              truncated (blob Target.x64 [ Minst.Nop; Minst.Mov_ri (0, Int64.max_int) ]) );
            ( "a64 truncated word",
              Target.a64,
              truncated (blob Target.a64 [ Minst.Nop; Minst.Ret ]) );
            ("x64 mov to register 200", Target.x64, blob Target.x64 [ Minst.Mov_ri (200, 5L) ]);
            ("a64 mov to register 200", Target.a64, blob Target.a64 [ Minst.Mov_rr (200, 1) ]);
            ( "x64 lea index 100",
              Target.x64,
              blob Target.x64
                [ Minst.Lea { dst = 0; base = 1; index = 100; scale = 1; off = 0 } ] );
            ( "x64 indexed load index 40",
              Target.x64,
              blob Target.x64 [ Minst.Nop; ldx ~base:1 ~index:40 () ] );
            (* the cell past the registers that an absent base reads *)
            ("x64 base-less load into register 33", Target.x64, blob Target.x64 [ ldx ~dst:33 () ]);
            ( "x64 base-less lea index 200",
              Target.x64,
              blob Target.x64 [ Minst.Lea { dst = 0; base = -1; index = 200; scale = 8; off = 0 } ] );
            ("x64 indexed load scale code 4", Target.x64, bad_scale (ldx ~base:1 ()) 4);
            ("x64 base-less load scale code 255", Target.x64, bad_scale (ldx ()) 255);
            ( "x64 base-less lea scale code 7",
              Target.x64,
              bad_scale (Minst.Lea { dst = 0; base = -1; index = 2; scale = 1; off = 0 }) 7 );
          ]);
    Alcotest.test_case "registration allocates nothing per instruction" `Quick
      (fun () ->
        (* the loader's two buffers are big enough for the major heap at
           both sizes; what is left on the minor heap is per blob *)
        List.iter
          (fun (target : Target.t) ->
            let emu = Emu.create ~mem_size:(1 lsl 20) target in
            let blob n =
              let a = Asm.create target in
              for k = 1 to n do
                Asm.emit a
                  (if k mod 3 = 0 then Minst.Nop
                   else Minst.Alu_ri (Minst.Add, 0, Int64.of_int k))
              done;
              Asm.emit a Minst.Ret;
              Asm.finish a
            in
            let words code =
              let w0 = Gc.minor_words () in
              Emu.release_code emu (Emu.register_code emu code);
              Gc.minor_words () -. w0
            in
            let small = blob 1_000 and large = blob 10_000 in
            ignore (words small);
            ignore (words large);
            check (Alcotest.float 0.)
              (target.Target.name ^ ": words do not grow with the blob")
              (words small) (words large))
          [ Target.x64; Target.a64 ]);
    Alcotest.test_case "loads and stores fault at the arena's edges" `Quick (fun () ->
        let mem_size = 1 lsl 20 in
        (* [insts] with the address in r7 (x64) or r0 (a64) *)
        let outcome target insts addr =
          let emu = Emu.create ~mem_size target in
          let a = Asm.create target in
          List.iter (Asm.emit a) (insts target.Target.arg_regs.(0) @ [ Minst.Ret ]);
          let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
          match Emu.call emu ~addr:base ~args:[| Int64.of_int addr |] with
          | _ -> None
          | exception Memory.Fault msg -> Some msg
        in
        List.iter
          (fun target ->
            List.iter
              (fun n ->
                let ld r = [ Minst.Ld { dst = 1; base = r; off = 0; size = n; sext = false } ] in
                let lds r = [ Minst.Ld { dst = 1; base = r; off = 0; size = n; sext = true } ] in
                let st r = [ Minst.St { src = 1; base = r; off = 0; size = n } ] in
                (* the second of a fused pair *)
                let ld_pair r =
                  [ Minst.Ld { dst = 2; base = target.Target.sp; off = 0; size = 8; sext = false } ]
                  @ if n = 8 then ld r else []
                in
                let ldx r =
                  if target.Target.name = "x64" then
                    [ Minst.Ldx { dst = 1; base = -1; index = r; scale = 1; off = 0; size = n; sext = false } ]
                  else ld r
                in
                List.iter
                  (fun (what, insts) ->
                    List.iter
                      (fun addr ->
                        check
                          Alcotest.(option string)
                          (Printf.sprintf "%s %s of %d at 0x%x" target.Target.name what n addr)
                          (Some (Printf.sprintf "access of %d bytes at 0x%x" n addr))
                          (outcome target insts addr))
                      [ mem_size - n + 1; Memory.page - 1; max_int - n + 2 ];
                    check
                      Alcotest.(option string)
                      (Printf.sprintf "%s %s of %d in range" target.Target.name what n)
                      None
                      (outcome target insts (mem_size - n)))
                  ([ ("load", ld); ("sext load", lds); ("store", st); ("indexed load", ldx) ]
                  @ if n = 8 then [ ("paired load", ld_pair) ] else []))
              [ 1; 2; 4; 8 ])
          [ Target.x64; Target.a64 ]);
    Alcotest.test_case "the public register accessors stay checked" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let rejects what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        rejects "reg" (fun () -> Emu.reg emu Emu.num_regs);
        rejects "set_reg" (fun () -> Emu.set_reg emu Emu.num_regs 1L));
    Alcotest.test_case "two domains entering a never-run module at once get the serial counts"
      `Quick (fun () ->
        (* both domains call the module's entry at the same moment, so both
           reach its first-entry translation together; each must get the
           serial run's result, cycles and instruction count *)
        List.iter
          (fun (target : Target.t) ->
            let n = target.Target.arg_regs.(0) and p = target.Target.arg_regs.(1) in
            let acc = 3 and tmp = 8 in
            let alu op d v =
              match target.Target.arch with
              | Target.X64 -> Minst.Alu_ri (op, d, v)
              | Target.A64 -> Minst.Alu_rri (op, d, d, v)
            and alu_r op d s =
              match target.Target.arch with
              | Target.X64 -> Minst.Alu_rr (op, d, s)
              | Target.A64 -> Minst.Alu_rrr (op, d, d, s)
            and crc d s =
              match target.Target.arch with
              | Target.X64 -> Minst.Crc32_rr (d, s)
              | Target.A64 -> Minst.Crc32_rrr (d, d, s)
            in
            let a = Asm.create target in
            let head = Asm.new_label a and exit = Asm.new_label a in
            Asm.emit a (Minst.Mov_ri (acc, 1L));
            Asm.bind a head;
            Asm.emit a (Minst.Cmp_ri (n, 0L));
            Asm.jcc a Minst.Sle exit;
            List.iter (Asm.emit a)
              [
                Minst.St { src = n; base = p; off = 8; size = 8 };
                Minst.Ld { dst = tmp; base = p; off = 8; size = 8; sext = false };
                alu_r Minst.Add acc tmp;
                alu Minst.Mul acc 3L;
                crc acc tmp;
                alu Minst.Sub n 1L;
              ];
            Asm.jmp a head;
            Asm.bind a exit;
            List.iter (Asm.emit a) [ Minst.Mov_rr (0, acc); Minst.Ret ];
            let code = Asm.finish a in
            let machine () =
              let emu = Emu.create ~mem_size:(1 lsl 22) target in
              (emu, Code_region.base (Emu.register_code emu code))
            in
            let run ctx base =
              let buf = Memory.alloc (Emu.memory ctx) 64 in
              let r, _ = Emu.call ctx ~addr:base ~args:[| 200L; Int64.of_int buf |] in
              (r, Emu.cycles ctx, Emu.instructions_executed ctx)
            in
            let serial =
              let emu, base = machine () in
              run emu base
            in
            for _ = 1 to 20 do
              let emu, base = machine () in
              let ready = Atomic.make 0 in
              let worker () =
                let ctx = Emu.context emu in
                ignore (Atomic.fetch_and_add ready 1);
                while Atomic.get ready < 2 do
                  Domain.cpu_relax ()
                done;
                let got = run ctx base in
                Emu.release_context ctx;
                got
              in
              let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
              let r1 = Domain.join d1 and r2 = Domain.join d2 in
              let same what (r, c, i) =
                let sr, sc, si = serial in
                check Alcotest.int64 (target.Target.name ^ " " ^ what ^ " result") sr r;
                check Alcotest.int (target.Target.name ^ " " ^ what ^ " cycles") sc c;
                check Alcotest.int (target.Target.name ^ " " ^ what ^ " instructions") si i
              in
              same "domain 1" r1;
              same "domain 2" r2
            done)
          [ Target.x64; Target.a64 ]);
    Alcotest.test_case "checked 128-bit add and subtract branch on overflow" `Quick
      (fun () ->
        (* [add; adc; jo] and [sub; sbb; jo], as x64 code checks 128-bit
           sums: the halves and the overflow branch match I128 *)
        let module I = Qcomp_support.I128 in
        let edge =
          [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x7FFF_FFFF_FFFF_FFFEL; 42L ]
        in
        List.iter
          (fun (target : Target.t) ->
            let args = target.Target.arg_regs in
            let two op d s =
              match target.Target.arch with
              | Target.X64 -> Minst.Alu_rr (op, d, s)
              | Target.A64 -> Minst.Alu_rrr (op, d, d, s)
            in
            let checked lo_op hi_op =
              let a = Asm.create target in
              let ovf = Asm.new_label a and out = Asm.new_label a in
              List.iter (Asm.emit a)
                [
                  Minst.Mov_rr (8, args.(0));
                  Minst.Mov_rr (9, args.(1));
                  two lo_op 8 args.(2);
                  two hi_op 9 args.(3);
                ];
              Asm.jcc a Minst.Ov ovf;
              Asm.emit a (Minst.Mov_ri (12, 0L));
              Asm.jmp a out;
              Asm.bind a ovf;
              Asm.emit a (Minst.Mov_ri (12, 1L));
              Asm.bind a out;
              List.iter (Asm.emit a) [ Minst.Mov_rr (0, 8); Minst.Ret ];
              let emu = Emu.create ~mem_size:(1 lsl 20) target in
              let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
              fun (x : I.t) (y : I.t) ->
                let lo, _ = Emu.call emu ~addr:base ~args:[| x.I.lo; x.I.hi; y.I.lo; y.I.hi |] in
                (I.make ~hi:(Emu.reg emu 9) ~lo, Emu.reg emu 12 = 1L)
            in
            let add = checked Minst.Add Minst.Adc and sub = checked Minst.Sub Minst.Sbb in
            List.iter
              (fun xh ->
                List.iter
                  (fun xl ->
                    List.iter
                      (fun yh ->
                        List.iter
                          (fun yl ->
                            let x = I.make ~hi:xh ~lo:xl and y = I.make ~hi:yh ~lo:yl in
                            let what = target.Target.name in
                            let r, o = add x y in
                            check Alcotest.bool (what ^ " add result") true (I.add x y = r);
                            check Alcotest.bool (what ^ " add overflow") (I.add_overflows x y) o;
                            let r, o = sub x y in
                            check Alcotest.bool (what ^ " sub result") true (I.sub x y = r);
                            check Alcotest.bool (what ^ " sub overflow") (I.sub_overflows x y) o)
                          edge)
                      edge)
                  edge)
              edge)
          [ Target.x64; Target.a64 ]);
  ]
