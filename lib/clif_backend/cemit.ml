(** Cranelift-like emission (Sec. VI-C4).

    Before writing bytes, the emitter re-scans all instructions and their
    register assignments to compute the clobbered (callee-saved) registers
    for the prologue — information the paper notes the register allocator
    could have provided cheaply — and runs the veneer-estimation pass using
    the 15-byte worst-case instruction length. Spilled virtual registers
    are rewritten through two reserved scratch registers. *)

open Qcomp_support
open Qcomp_vm

type fn_result = {
  fr_start : int;
  fr_size : int;
  fr_rows : (int * Unwind.cfa_rule) list;
  fr_spills : int;
  fr_btree_ops : int;
}

(* pass: compute clobbered callee-saved registers from final assignments *)
let clobber_scan (vc : Vcode.t) (ra : Regalloc.t) =
  let target = vc.Vcode.target in
  let clobbered = Hashtbl.create 8 in
  let has_call = ref false in
  let mark r =
    if Target.is_callee_saved target r then Hashtbl.replace clobbered r ()
  in
  for b = 0 to vc.Vcode.nblocks - 1 do
    Vec.iter
      (fun i ->
        if Vcode.is_call i then has_call := true;
        let defs, _ = Vcode.defs_uses i in
        List.iter
          (fun d ->
            if Vcode.is_vreg d then begin
              let a = ra.Regalloc.assignment.(d - Vcode.vreg_base) in
              if a >= 0 then mark a
            end
            else mark d)
          defs)
      vc.Vcode.insts.(b)
  done;
  (* block-local registers of spilled vregs are written by reload code *)
  Hashtbl.iter (fun _ preg -> mark preg) ra.Regalloc.block_pref;
  (Hashtbl.fold (fun r () acc -> r :: acc) clobbered [] |> List.sort compare, !has_call)

(* pass: estimate block sizes with the 15-byte over-approximation to decide
   whether veneers could be needed (they never are with our encodings, but
   the scan itself is the cost the paper describes) *)
let veneer_estimate (vc : Vcode.t) =
  let total = ref 0 in
  for b = 0 to vc.Vcode.nblocks - 1 do
    let moves = ref 0 in
    Vec.iter
      (fun i ->
        (match i with Minst.Mov_rr _ -> incr moves | _ -> ());
        total := !total + 15)
      vc.Vcode.insts.(b);
    total := !total + (15 * !moves)
  done;
  !total

let emit ~(asm : Asm.t) (vc : Vcode.t) (ra : Regalloc.t) =
  let target = vc.Vcode.target in
  let sp = target.Target.sp in
  let s1, s2 = Regalloc.ra_scratch target in
  let clobbered, has_call = clobber_scan vc ra in
  let _estimated = veneer_estimate vc in
  let is_a64 = target.Target.arch = Target.A64 in
  let saved = clobbered @ (if has_call && is_a64 then [ Target.lr ] else []) in
  let spill_area = ra.Regalloc.frame_size in
  let frame = (spill_area + (8 * List.length saved) + 15) land lnot 15 in
  while Asm.offset asm land 15 <> 0 do
    Asm.emit asm Minst.Nop
  done;
  let start = Asm.offset asm in
  (* prologue *)
  if frame > 0 then Asm.emit asm (Minst.Alu_rri (Minst.Sub, sp, sp, Int64.of_int frame));
  List.iteri
    (fun k r ->
      Asm.emit asm (Minst.St { src = r; base = sp; off = spill_area + (8 * k); size = 8 }))
    saved;
  let after_prologue = Asm.offset asm - start in
  (* body *)
  let labels = Array.init vc.Vcode.nblocks (fun _ -> Asm.new_label asm) in
  let emit_epilogue () =
    List.iteri
      (fun k r ->
        Asm.emit asm
          (Minst.Ld { dst = r; base = sp; off = spill_area + (8 * k); size = 8; sext = false }))
      saved;
    if frame > 0 then Asm.emit asm (Minst.Alu_rri (Minst.Add, sp, sp, Int64.of_int frame));
    Asm.emit asm Minst.Ret
  in
  let map_vreg scratch_for_def r =
    if not (Vcode.is_vreg r) then r
    else
      let v = r - Vcode.vreg_base in
      if ra.Regalloc.assignment.(v) >= 0 then ra.Regalloc.assignment.(v)
      else scratch_for_def
  in
  for b = 0 to vc.Vcode.nblocks - 1 do
    Asm.bind asm labels.(b);
    let last = Vec.length vc.Vcode.insts.(b) - 1 in
    (* spilled vregs with a block-local register that already hold the
       current value (loaded at first use or written by a def) *)
    let loaded = Hashtbl.create 8 in
    (* the position of each such vreg's last def in the block: the slot is
       written once, there (found when a live-out one is first stored) *)
    let last_def =
      lazy
        (let t = Hashtbl.create 8 in
         Vec.iteri
           (fun k inst ->
             List.iter
               (fun d ->
                 if Vcode.is_vreg d then
                   let v = d - Vcode.vreg_base in
                   if ra.Regalloc.assignment.(v) < 0 && Hashtbl.mem ra.Regalloc.block_pref (v, b)
                   then Hashtbl.replace t v k)
               (fst (Vcode.defs_uses inst)))
           vc.Vcode.insts.(b);
         t)
    in
    Vec.iteri
      (fun k inst ->
        let _, uses = Vcode.defs_uses inst in
        (* assign scratches to spilled uses *)
        let spill_map = Hashtbl.create 4 in
        let next_scratch = ref [ s1; s2 ] in
        List.iter
          (fun u ->
            if Vcode.is_vreg u then begin
              let v = u - Vcode.vreg_base in
              if ra.Regalloc.assignment.(v) < 0 && not (Hashtbl.mem spill_map u)
              then begin
                match Hashtbl.find_opt ra.Regalloc.block_pref (v, b) with
                | Some preg ->
                    if not (Hashtbl.mem loaded v) then begin
                      Hashtbl.add loaded v ();
                      if ra.Regalloc.spill_slot.(v) >= 0 then
                        Asm.emit asm
                          (Minst.Ld
                             { dst = preg; base = sp; off = ra.Regalloc.spill_slot.(v); size = 8; sext = false })
                    end
                | None -> (
                    match !next_scratch with
                    | s :: rest ->
                        next_scratch := rest;
                        Hashtbl.add spill_map u s;
                        if ra.Regalloc.spill_slot.(v) >= 0 then
                          Asm.emit asm
                            (Minst.Ld
                               { dst = s; base = sp; off = ra.Regalloc.spill_slot.(v); size = 8; sext = false })
                    | [] -> failwith "clif emit: out of spill scratches")
              end
            end)
          uses;
        let m r =
          if not (Vcode.is_vreg r) then r
          else
            match Hashtbl.find_opt ra.Regalloc.block_pref (r - Vcode.vreg_base, b) with
            | Some preg -> preg
            | None -> (
                match Hashtbl.find_opt spill_map r with
                | Some s -> s
                | None -> map_vreg s1 r)
        in
        (* rewrite, handling branch targets specially *)
        (match inst with
        (* as MachBuffer: a block's final jump to the next block falls through *)
        | Minst.Jmp b' when k = last && b' = b + 1 -> ()
        | Minst.Jmp b' -> Asm.jmp asm labels.(b')
        | Minst.Jcc (c, b') -> Asm.jcc asm c labels.(b')
        | Minst.Ret -> emit_epilogue ()
        | _ -> (
            (* coalesced copies become identity moves; drop them *)
            match Vcode.map_regs m inst with
            | Minst.Mov_rr (d, s) when d = s -> ()
            | mapped -> Asm.emit asm mapped));
        (* spilled defs written through the scratch get stored back *)
        let defs, _ = Vcode.defs_uses inst in
        List.iter
          (fun d ->
            if Vcode.is_vreg d then begin
              let v = d - Vcode.vreg_base in
              if ra.Regalloc.assignment.(v) < 0 && ra.Regalloc.spill_slot.(v) >= 0
              then begin
                match Hashtbl.find_opt ra.Regalloc.block_pref (v, b) with
                | Some preg ->
                    Hashtbl.replace loaded v ();
                    (* later uses in this block read the register; the slot
                       only matters if the value escapes the block, and
                       then only its last def's value *)
                    if Bitset.mem ra.Regalloc.live_out.(b) v && Hashtbl.find (Lazy.force last_def) v = k
                    then
                      Asm.emit asm
                        (Minst.St { src = preg; base = sp; off = ra.Regalloc.spill_slot.(v); size = 8 })
                | None ->
                    let s =
                      match Hashtbl.find_opt spill_map d with Some s -> s | None -> s1
                    in
                    Asm.emit asm
                      (Minst.St { src = s; base = sp; off = ra.Regalloc.spill_slot.(v); size = 8 })
              end
            end)
          defs)
      vc.Vcode.insts.(b)
  done;
  let size = Asm.offset asm - start in
  (* manually generated CFI (the JIT wrapper does not provide it) *)
  let rows =
    [
      (0, { Unwind.cfa_offset = 8; saved_regs = [] });
      ( after_prologue,
        {
          Unwind.cfa_offset = 8 + frame;
          saved_regs = List.mapi (fun k r -> (r, spill_area + (8 * k))) saved;
        } );
    ]
  in
  {
    fr_start = start;
    fr_size = size;
    fr_rows = rows;
    fr_spills = ra.Regalloc.num_spilled;
    fr_btree_ops = ra.Regalloc.btree_ops;
  }
