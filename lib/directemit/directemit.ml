(** The DirectEmit back-end (Sec. VII): a single analysis pass plus a single
    code-generation pass per function, x86-64 only, with synchronous-only
    DWARF CFI written alongside the code. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm
open Qcomp_runtime

let name = "directemit"

(** Generation of the code this back-end emits, folded into code-cache
    snapshot keys. The code computes the runtime's short-string hash
    ({!Qcomp_runtime.Sso.hash}) inline, so a snapshot written under
    another hash must not be re-linked: bump this with that hash, and with
    any change to the code the emitter writes (2: register reuse,
    immediates and callee-saved registers; 3: no fits-64-bits check on an
    i128 factor that provably fits, one-lane write-home at calls; 4:
    indexed loads and base-less [lea], which a loader that predates them
    refuses). *)
let code_version = 4

let compile_func ~asm ~target ~intrinsics ~extern_addr ~rt_addr ~timing (f : Func.t) =
  let an = Timing.scope timing "Analysis" (fun () -> Analysis.compute ~intrinsics f) in
  Timing.scope timing "CodeGen" (fun () ->
      (* align function starts *)
      while Asm.offset asm land 15 <> 0 do
        Asm.emit asm Minst.Nop
      done;
      let st = Emit.create asm f target an ~intrinsics extern_addr rt_addr in
      (* room for the prologue, which is written once the frame size and
         the callee-saved registers the body uses are known: a frame
         allocation and one store per register, 6 bytes each at most. It
         ends where the body starts and the function starts where it
         does; the unused front of the room is never executed. *)
      let room =
        6 * (1 + Array.fold_left (fun n s -> if s then n + 1 else n) 0 st.Emit.callee_saved)
      in
      for _ = 1 to room do
        Asm.emit asm Minst.Nop
      done;
      let body = Asm.offset asm in
      (* incoming arguments *)
      let argk = ref 0 in
      (* arguments are defined at position -1 of the entry block *)
      st.Emit.cur_pos <- -1;
      for a = 0 to Func.n_args f - 1 do
        Emit.attach st target.Target.arg_regs.(!argk) a 0;
        incr argk;
        if Func.ty f a = Ty.I128 then begin
          Emit.attach st target.Target.arg_regs.(!argk) a 1;
          incr argk
        end;
        Emit.finish_def st a
      done;
      Emit.fix_entry st;
      (* body, blocks in layout order, each entered in its entry map *)
      Array.iteri
        (fun k b ->
          Asm.bind asm st.Emit.block_labels.(b);
          Emit.enter_block st k b;
          Vec.iteri
            (fun pos i ->
              st.Emit.cur_pos <- pos;
              Emit.emit_inst st i)
            (Func.block_insts f b))
        an.Analysis.order;
      (* the callee-saved registers the body wrote, saved above its slots *)
      let saved =
        List.filter (fun r -> st.Emit.used_saved.(r)) (Array.to_list target.Target.callee_saved)
      in
      let save_off k = st.Emit.frame + (8 * k) in
      let frame = (save_off (List.length saved) + 15) land lnot 15 in
      let sp = target.Target.sp in
      (* epilogue *)
      Asm.bind asm st.Emit.epilogue;
      List.iteri
        (fun k r ->
          Asm.emit asm (Minst.Ld { dst = r; base = sp; off = save_off k; size = 8; sext = false }))
        saved;
      if frame > 0 then Asm.emit asm (Minst.Alu_ri (Minst.Add, sp, Int64.of_int frame));
      Asm.emit asm Minst.Ret;
      Emit.emit_stubs st;
      (* shared overflow trap *)
      if st.Emit.trap_label >= 0 then begin
        Asm.bind asm st.Emit.trap_label;
        Asm.emit asm (Minst.Mov_ri (target.Target.scratch, rt_addr "umbra_throwOverflow"));
        Asm.emit asm (Minst.Call_ind target.Target.scratch);
        Asm.emit asm (Minst.Brk 1)
      end;
      (* prologue *)
      let pro = Asm.create target in
      if frame > 0 then Asm.emit pro (Minst.Alu_ri (Minst.Sub, sp, Int64.of_int frame));
      List.iteri
        (fun k r -> Asm.emit pro (Minst.St { src = r; base = sp; off = save_off k; size = 8 }))
        saved;
      let pro = Asm.finish pro in
      let after_prologue = Bytes.length pro in
      let start = body - after_prologue in
      Bytes.iteri (fun k c -> Asm.patch_u8 asm (start + k) (Char.code c)) pro;
      let size = Asm.offset asm - start in
      (* synchronous-only CFI rows; a saved register's offset is its
         slot's distance below the CFA *)
      let rows =
        (0, { Unwind.cfa_offset = 8; saved_regs = [] })
        ::
        (if after_prologue = 0 then []
         else
           [
             ( after_prologue,
               {
                 Unwind.cfa_offset = 8 + frame;
                 saved_regs = List.mapi (fun k r -> (r, 8 + frame - save_off k)) saved;
               } );
           ])
      in
      (start, size, rows, st.Emit.param_holes))

let compile_artifact ~timing ~(target : Target.t) ~registry (m : Func.modul) :
    Qcomp_backend.Artifact.t =
  if target.Target.arch <> Target.X64 then
    invalid_arg "DirectEmit only supports x86-64 (as in the paper)";
  (* DirectEmit emits no relocations: every runtime/extern address is an
     absolute immediate. Record each one so a re-link in another process
     can verify them against its own registry. *)
  let baked = Hashtbl.create 8 in
  let record nm =
    let a = Registry.addr registry nm in
    Hashtbl.replace baked nm a;
    a
  in
  let extern_addr sym =
    let e = Func.extern m sym in
    record e.Func.ext_name
  in
  let rt_addr nm = record nm in
  let intrinsics = Analysis.intrinsics m in
  let asm = Asm.create target in
  let fns = ref [] in
  let relocs = ref [] in
  Vec.iter
    (fun f ->
      let start, size, rows, holes =
        compile_func ~asm ~target ~intrinsics ~extern_addr ~rt_addr ~timing f
      in
      (* hole offsets are absolute in the shared [asm] buffer already *)
      List.iter
        (fun (off, idx, is_hi) ->
          relocs :=
            {
              Qcomp_backend.Artifact.r_off = off;
              r_sym = "";
              r_kind =
                (if is_hi then Qcomp_backend.Artifact.Param_hi idx
                 else Qcomp_backend.Artifact.Param idx);
            }
            :: !relocs)
        holes;
      fns := (f.Func.name, start, size, rows) :: !fns)
    m.Func.funcs;
  let code = Timing.scope timing "Finalize" (fun () -> Asm.finish asm) in
  {
    Qcomp_backend.Artifact.a_backend = name;
    a_target = target.Target.name;
    a_text = code;
    a_syms =
      List.rev_map
        (fun (n, start, size, _) ->
          {
            Qcomp_backend.Artifact.s_name = n;
            s_off = start;
            s_size = size;
            s_defined = true;
          })
        !fns;
    a_relocs = !relocs;
    a_unwind =
      List.rev_map
        (fun (_, start, size, rows) ->
          {
            Qcomp_backend.Artifact.uf_start = start;
            uf_size = size;
            uf_sync_only = true;
            uf_rows = rows;
          })
        !fns;
    a_baked =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) baked []);
    a_params = Qcomp_backend.Artifact.params_of_module m;
    a_stats = [];
    a_code_size = Bytes.length code;
  }

(* only Finalize and UnwindInfo are Fig. 5 phases: the link itself gets
   no timing scope *)
let backend =
  {
    Qcomp_backend.Backend.name;
    supports_params = true;
    compile = Native { artifact = compile_artifact; link = Unscoped };
  }
