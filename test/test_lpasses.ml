(* The mid-level optimization pipeline: EarlyCSE, SimplifyCFG, InstCombine,
   LICM and DCE on hand-built LIR functions. *)

open Qcomp_llvm
open Qcomp_support

let check = Alcotest.check

let timing = Timing.create ~enabled:false ()

let count_iop f pred =
  let n = ref 0 in
  Lir.iter_blocks f (fun b ->
      Lir.iter_insts b (fun i -> if (not i.Lir.deleted) && pred i.Lir.iop then incr n));
  !n

let run_pipeline f =
  let cache = Lpasses.fresh_cache () in
  Lpasses.run_passes timing cache Lpasses.o2_pipeline f

let run1 pass f =
  let cache = Lpasses.fresh_cache () in
  Lpasses.run_passes timing cache [ pass ] f

let new_modul () = Lir.create_module [||]

(* f(a): x = a+1; y = a+1; return x+y — CSE must merge the two adds *)
let build_cse_candidate m =
  let f = Lir.create_func m ~name:"cse" ~arg_tys:[| Lir.I64 |] ~ret_ty:Lir.I64 in
  let b = Lir.new_block f in
  let a = Lir.Varg (0, Lir.I64) in
  let one = Lir.Vconst (Lir.I64, 1L) in
  let x = Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64 ~operands:[| a; one |] () in
  let y = Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64 ~operands:[| a; one |] () in
  let s =
    Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64 ~operands:[| Lir.Vinst x; Lir.Vinst y |] ()
  in
  ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| Lir.Vinst s |] ());
  f

let suite =
  [
    Alcotest.test_case "EarlyCSE merges identical adds" `Quick (fun () ->
        let m = new_modul () in
        let f = build_cse_candidate m in
        check Alcotest.int "before" 3 (count_iop f (fun o -> o = Lir.Add));
        run1 Lpasses.early_cse_pass f;
        Lir.iter_blocks f (fun b -> Lir.compact b);
        check Alcotest.int "after" 2 (count_iop f (fun o -> o = Lir.Add)));
    Alcotest.test_case "DCE removes unused pure instructions" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"dce" ~arg_tys:[| Lir.I64 |] ~ret_ty:Lir.I64 in
        let b = Lir.new_block f in
        let a = Lir.Varg (0, Lir.I64) in
        let dead =
          Lir.mk_inst f b ~iop:Lir.Mul ~ity:Lir.I64
            ~operands:[| a; Lir.Vconst (Lir.I64, 3L) |] ()
        in
        ignore dead;
        ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| a |] ());
        run1 Lpasses.dce_pass f;
        Lir.iter_blocks f (fun b -> Lir.compact b);
        check Alcotest.int "mul gone" 0 (count_iop f (fun o -> o = Lir.Mul)));
    Alcotest.test_case "DCE keeps stores and calls" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"keep" ~arg_tys:[| Lir.Ptr |] ~ret_ty:Lir.Void in
        let b = Lir.new_block f in
        let p = Lir.Varg (0, Lir.Ptr) in
        ignore
          (Lir.mk_inst f b ~iop:Lir.Store ~ity:Lir.Void
             ~operands:[| Lir.Vconst (Lir.I64, 1L); p |] ());
        ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ());
        run1 Lpasses.dce_pass f;
        check Alcotest.int "store kept" 1 (count_iop f (fun o -> o = Lir.Store)));
    Alcotest.test_case "InstCombine folds constants" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"fold" ~arg_tys:[||] ~ret_ty:Lir.I64 in
        let b = Lir.new_block f in
        let s =
          Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64
            ~operands:[| Lir.Vconst (Lir.I64, 20L); Lir.Vconst (Lir.I64, 22L) |] ()
        in
        ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| Lir.Vinst s |] ());
        run1 Lpasses.instcombine_pass f;
        run1 Lpasses.dce_pass f;
        Lir.iter_blocks f (fun blk -> Lir.compact blk);
        (* the ret operand must now be the folded constant *)
        let folded = ref false in
        Lir.iter_blocks f (fun blk ->
            Lir.iter_insts blk (fun i ->
                if i.Lir.iop = Lir.Ret then
                  match i.Lir.operands with
                  | [| Lir.Vconst (Lir.I64, 42L) |] -> folded := true
                  | _ -> ()));
        check Alcotest.bool "folded to 42" true !folded);
    Alcotest.test_case "InstCombine: x+0, x*1 identities" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"ident" ~arg_tys:[| Lir.I64 |] ~ret_ty:Lir.I64 in
        let b = Lir.new_block f in
        let a = Lir.Varg (0, Lir.I64) in
        let x =
          Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64
            ~operands:[| a; Lir.Vconst (Lir.I64, 0L) |] ()
        in
        let y =
          Lir.mk_inst f b ~iop:Lir.Mul ~ity:Lir.I64
            ~operands:[| Lir.Vinst x; Lir.Vconst (Lir.I64, 1L) |] ()
        in
        ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| Lir.Vinst y |] ());
        run1 Lpasses.instcombine_pass f;
        run1 Lpasses.dce_pass f;
        Lir.iter_blocks f (fun blk -> Lir.compact blk);
        check Alcotest.int "arith gone" 0
          (count_iop f (fun o -> o = Lir.Add || o = Lir.Mul)));
    Alcotest.test_case "InstCombine: a GEP's constant index joins its offset" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"gep" ~arg_tys:[| Lir.Ptr; Lir.I64 |] ~ret_ty:Lir.I64 in
        let b = Lir.new_block f in
        let p = Lir.Varg (0, Lir.Ptr) and row = Lir.Varg (1, Lir.I64) in
        let gep ~base ~index ~scale ~off =
          Lir.mk_inst f b ~iop:Lir.Gep ~ity:Lir.Ptr
            ~operands:(Lir.gep_operands ~base ~index ~scale ~off) ()
        in
        (* p + 3 * 8 + 4: the index folds, the GEP stays *)
        let g1 = gep ~base:p ~index:(Lir.Vconst (Lir.I64, 3L)) ~scale:8 ~off:4L in
        (* p + 0: no GEP left *)
        let g2 = gep ~base:p ~index:(Lir.Vconst (Lir.I64, 0L)) ~scale:8 ~off:0L in
        (* p + row * 8 + 4: nothing to fold *)
        let g3 = gep ~base:p ~index:row ~scale:8 ~off:4L in
        let ld (g : Lir.inst) = Lir.mk_inst f b ~iop:Lir.Load ~ity:Lir.I64 ~operands:[| Lir.Vinst g |] () in
        let l1 = ld g1 and l2 = ld g2 and l3 = ld g3 in
        let s = Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64 ~operands:[| Lir.Vinst l1; Lir.Vinst l2 |] () in
        let s = Lir.mk_inst f b ~iop:Lir.Add ~ity:Lir.I64 ~operands:[| Lir.Vinst s; Lir.Vinst l3 |] () in
        ignore (Lir.mk_inst f b ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| Lir.Vinst s |] ());
        run1 Lpasses.instcombine_pass f;
        check Alcotest.bool "index folded" true
          (g1.Lir.operands.(1) = Lir.Vconst (Lir.I64, 0L) && Lir.gep_scale_off g1 = (8, 28L));
        check Alcotest.bool "zero GEP replaced by its base" true (g2.Lir.deleted && l2.Lir.operands.(0) = p);
        check Alcotest.bool "variable index kept" true
          ((not g3.Lir.deleted) && g3.Lir.operands.(1) = row && Lir.gep_scale_off g3 = (8, 4L)));
    Alcotest.test_case "LICM hoists loop-invariant mul" `Quick (fun () ->
        let m = new_modul () in
        let f = Lir.create_func m ~name:"licm" ~arg_tys:[| Lir.I64; Lir.I64 |] ~ret_ty:Lir.I64 in
        let entry = Lir.new_block f in
        let head = Lir.new_block f in
        let body = Lir.new_block f in
        let exit = Lir.new_block f in
        let n = Lir.Varg (0, Lir.I64) and k = Lir.Varg (1, Lir.I64) in
        ignore (Lir.mk_inst f entry ~iop:Lir.Br ~ity:Lir.Void ~targets:[| head |] ());
        (* head: i = phi [0,entry],[i',body]; cond = i < n *)
        let iphi = Lir.mk_phi_front f head ~ity:Lir.I64 in
        let cond =
          Lir.mk_inst f head ~iop:(Lir.Icmp Qcomp_ir.Op.Slt) ~ity:Lir.I1
            ~operands:[| Lir.Vinst iphi; n |] ()
        in
        ignore
          (Lir.mk_inst f head ~iop:Lir.Condbr ~ity:Lir.Void
             ~operands:[| Lir.Vinst cond |] ~targets:[| body; exit |] ());
        (* body: inv = k*k (invariant); i' = i + inv *)
        let inv = Lir.mk_inst f body ~iop:Lir.Mul ~ity:Lir.I64 ~operands:[| k; k |] () in
        let i' =
          Lir.mk_inst f body ~iop:Lir.Add ~ity:Lir.I64
            ~operands:[| Lir.Vinst iphi; Lir.Vinst inv |] ()
        in
        ignore (Lir.mk_inst f body ~iop:Lir.Br ~ity:Lir.Void ~targets:[| head |] ());
        iphi.Lir.operands <- [| Lir.Vconst (Lir.I64, 0L); Lir.Vinst i' |];
        iphi.Lir.phi_blocks <- [| entry; body |];
        Lir.add_user (Lir.Vconst (Lir.I64, 0L)) iphi;
        Lir.add_user (Lir.Vinst i') iphi;
        ignore
          (Lir.mk_inst f exit ~iop:Lir.Ret ~ity:Lir.Void ~operands:[| Lir.Vinst iphi |] ());
        run1 Lpasses.licm_pass f;
        (* the mul must have left the loop body *)
        let in_body = ref false in
        Lir.iter_insts body (fun i ->
            if (not i.Lir.deleted) && i.Lir.iop = Lir.Mul then in_body := true);
        check Alcotest.bool "hoisted" false !in_body;
        check Alcotest.int "still exists once" 1 (count_iop f (fun o -> o = Lir.Mul)));
    Alcotest.test_case "full O2 pipeline is idempotent on clean code" `Quick
      (fun () ->
        let m = new_modul () in
        let f = build_cse_candidate m in
        run_pipeline f;
        Lir.iter_blocks f (fun b -> Lir.compact b);
        let n1 = Lir.num_insts f in
        run_pipeline f;
        Lir.iter_blocks f (fun b -> Lir.compact b);
        check Alcotest.int "fixpoint" n1 (Lir.num_insts f));
    Alcotest.test_case "use lists stay consistent through the pipeline" `Quick
      (fun () ->
        let m = new_modul () in
        let f = build_cse_candidate m in
        run_pipeline f;
        (* every operand's use list must contain the user *)
        Lir.iter_blocks f (fun b ->
            Lir.iter_insts b (fun i ->
                if not i.Lir.deleted then
                  Array.iter
                    (fun v ->
                      match v with
                      | Lir.Vinst d ->
                          check Alcotest.bool "registered use" true
                            (List.exists (fun u -> u.Lir.iid = i.Lir.iid) d.Lir.users)
                      | _ -> ())
                    i.Lir.operands)));
  ]
