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
    another hash must not be re-linked: bump this with that hash. *)
let code_version = 1

let compile_func ~asm ~target ~intrinsics ~extern_addr ~rt_addr ~timing (f : Func.t) =
  let an = Timing.scope timing "Analysis" (fun () -> Analysis.compute ~intrinsics f) in
  Timing.scope timing "CodeGen" (fun () ->
      (* align function starts *)
      while Asm.offset asm land 15 <> 0 do
        Asm.emit asm Minst.Nop
      done;
      let start = Asm.offset asm in
      let st = Emit.create asm f target an ~intrinsics extern_addr rt_addr in
      (* prologue: frame allocation, patched once the frame size is known *)
      let frame_patch = Asm.offset asm + 2 in
      Asm.emit asm (Minst.Alu_ri (Minst.Sub, target.Target.sp, 0x7FFFFFFFL));
      let after_prologue = Asm.offset asm - start in
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
      (* epilogue *)
      Asm.bind asm st.Emit.epilogue;
      let epi_patch = Asm.offset asm + 2 in
      Asm.emit asm (Minst.Alu_ri (Minst.Add, target.Target.sp, 0x7FFFFFFFL));
      Asm.emit asm Minst.Ret;
      Emit.emit_stubs st;
      (* shared overflow trap *)
      if st.Emit.trap_label >= 0 then begin
        Asm.bind asm st.Emit.trap_label;
        Asm.emit asm (Minst.Mov_ri (target.Target.scratch, rt_addr "umbra_throwOverflow"));
        Asm.emit asm (Minst.Call_ind target.Target.scratch);
        Asm.emit asm (Minst.Brk 1)
      end;
      let frame = (st.Emit.frame + 15) land lnot 15 in
      Asm.patch_imm32 asm frame_patch frame;
      Asm.patch_imm32 asm epi_patch frame;
      let size = Asm.offset asm - start in
      (* synchronous-only CFI rows *)
      let rows =
        [
          (0, { Unwind.cfa_offset = 8; saved_regs = [] });
          (after_prologue, { Unwind.cfa_offset = 8 + frame; saved_regs = [] });
        ]
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
