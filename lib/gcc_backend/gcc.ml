(** The GCC/C back-end (Sec. IV).

    Pipeline with the structure the paper describes: Umbra IR is printed as
    C into a temporary file; the "external compiler" reads and parses that
    file, rebuilds SSA, optimizes aggressively (-O3-like: two rounds of the
    optimization pipeline), selects instructions via the optimizing
    selector and the greedy register allocator, and prints *textual
    assembly* to another temporary file; a separate assembler parses that
    text and produces a relocatable object; the linker turns it into a
    loadable image, which dlopen/dlsym-style loading finally registers.
    The paper notes compile times were deliberately not optimized for this
    back-end — neither are they here. Phase names follow Table I. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm
open Qcomp_runtime
module Llvm = Qcomp_llvm
module Lir = Qcomp_llvm.Lir
module Elf = Qcomp_llvm.Elf

let name = "gcc"

let temp_dir = Filename.get_temp_dir_name ()

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let counter = ref 0

let compile_artifact ~timing ~(target : Target.t) ~registry (m : Func.modul) :
    Qcomp_backend.Artifact.t =
  incr counter;
  let base_name = Printf.sprintf "qcomp_gcc_%d_%d" (Unix.getpid ()) !counter in
  let c_path = Filename.concat temp_dir (base_name ^ ".c") in
  let s_path = Filename.concat temp_dir (base_name ^ ".s") in
  (* 1. generate C and write the temporary file *)
  let csrc =
    Timing.scope timing "GenerateC" (fun () ->
        let src = Cgen.generate m in
        write_file c_path src;
        src)
  in
  ignore csrc;
  (* 2. "gcc" parses the file (the phase measured at ~13%) *)
  let lmod =
    Lir.create_module (Qcomp_support.Vec.to_array m.Func.externs)
  in
  let funcs =
    Timing.scope timing "Parse" (fun () ->
        let text = read_file c_path in
        let ast = Cparse.parse text in
        Timing.scope timing "Gimplify" (fun () -> Cbuild.build ast lmod))
  in
  (* 3. optimize hard (-O3-like: two rounds) *)
  Timing.scope timing "Optimize" (fun () ->
      List.iter
        (fun f ->
          let cache = Llvm.Lpasses.fresh_cache () in
          Llvm.Lpasses.run_passes timing cache Llvm.Lpasses.o2_pipeline f;
          Llvm.Lpasses.run_passes timing cache Llvm.Lpasses.o2_pipeline f)
        funcs);
  (* 4. code generation: optimizing selector + greedy allocator, then
        textual assembly output *)
  (* absolute runtime addresses baked as immediates are recorded so a
     re-link in another process can verify them *)
  let baked = Hashtbl.create 8 in
  let rt_addr nm =
    let a = Registry.addr registry nm in
    Hashtbl.replace baked nm a;
    a
  in
  let externs = Qcomp_support.Vec.to_array m.Func.externs in
  let extern_name s = externs.(s).Func.ext_name in
  let asm_text = Buffer.create 4096 in
  let fn_frames = ref [] in
  Timing.scope timing "CodeGen" (fun () ->
      List.iter
        (fun lf ->
          let fl =
            Llvm.Flow.create ~target ~cfg:Llvm.Flow.default_config ~rt_addr
              ~extern_name lf
          in
          Llvm.Lisel.lower_function fl ~mode:Llvm.Lisel.Dag;
          let mir = fl.Llvm.Flow.mir in
          Llvm.Mpasses.phi_elim mir;
          Llvm.Mpasses.two_address mir;
          let live = Llvm.Mpasses.compute_liveness mir in
          let freq = Llvm.Mpasses.block_freq mir in
          ignore (Llvm.Mpasses.regalloc_greedy mir live freq);
          Llvm.Mpasses.remove_identity_moves mir;
          let frame = Llvm.Mpasses.prologue_epilogue mir in
          Llvm.Mpasses.drop_fallthrough_jumps mir;
          Gasm.print_function target ~name:lf.Lir.lname mir asm_text;
          fn_frames := (lf.Lir.lname, frame) :: !fn_frames)
        funcs);
  (* 5. assembler: separate tool, reads the .s file *)
  let obj =
    Timing.scope timing "Assembler" (fun () ->
        write_file s_path (Buffer.contents asm_text);
        let text = read_file s_path in
        Gasm.assemble target text)
  in
  (* 6. linker: produce the shared object image and read it back (the
        round-trip is deliberate, measured cost) *)
  let image = Timing.scope timing "Linker" (fun () -> Elf.write obj) in
  let obj = Timing.scope timing "Linker" (fun () -> Elf.parse image) in
  (* leave no temporary files behind *)
  (try Sys.remove c_path with Sys_error _ -> ());
  (try Sys.remove s_path with Sys_error _ -> ());
  let got_slots =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (s : Elf.symbol) ->
              if s.Elf.s_defined then None else Some s.Elf.s_name)
            obj.Elf.o_syms))
  in
  {
    Qcomp_backend.Artifact.a_backend = name;
    a_target = target.Target.name;
    a_text = obj.Elf.o_text;
    a_syms = obj.Elf.o_syms;
    a_relocs = obj.Elf.o_relocs;
    a_unwind =
      List.filter_map
        (fun (fname, frame) ->
          List.find_map
            (fun (s : Elf.symbol) ->
              if s.Elf.s_defined && String.equal s.Elf.s_name fname then
                Some
                  {
                    Qcomp_backend.Artifact.uf_start = s.Elf.s_off;
                    uf_size = 16;
                    uf_sync_only = false;
                    uf_rows =
                      [
                        (0, { Unwind.cfa_offset = 8; saved_regs = [] });
                        (4, { Unwind.cfa_offset = 8 + frame; saved_regs = [] });
                      ];
                  }
              else None)
            obj.Elf.o_syms)
        (List.rev !fn_frames);
    a_baked =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) baked []);
    a_params = [||];
    a_stats = [ ("got_slots", got_slots) ];
    a_code_size = Bytes.length image;
  }

(* gcc compiles whole plans only: parameterized shapes fall back to a
   param-capable tier (or whole-plan compilation) in the serving layer.
   Linking is step 7, dlopen/dlsym. *)
let backend =
  {
    Qcomp_backend.Backend.name;
    supports_params = false;
    compile = Native { artifact = compile_artifact; link = Dlopen };
  }
