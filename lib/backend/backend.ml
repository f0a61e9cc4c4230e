(** Common interface of the execution back-ends.

    A back-end compiles an Umbra IR module into callable addresses —
    machine code registered with the emulator, or (for the interpreter)
    host dispatch slots. All back-ends report phase timings through the
    supplied {!Qcomp_support.Timing.t} collector; those timings are the
    compile-time data behind every table and figure. *)

open Qcomp_support
open Qcomp_vm
open Qcomp_runtime

type compiled_module = {
  cm_functions : (string * int64) list;  (** function name -> address *)
  cm_code_size : int;  (** emitted code bytes (0 for the interpreter) *)
  cm_stats : (string * int) list;  (** back-end specific counters *)
  cm_regions : Code_region.t list;
      (** code regions this module owns (empty for the interpreter) *)
  cm_runtime_slots : int64 list;
      (** host dispatch slots this module owns (interpreter only) *)
  cm_data_blocks : (int * int * int) list;
      (** (addr, size, align) blocks in linear memory this module owns
          (e.g. a JIT-linked module's GOT); freed with the module *)
  mutable cm_disposed : bool;
}

let find_fn cm name =
  match List.assoc_opt name cm.cm_functions with
  | Some a -> a
  | None -> invalid_arg ("compiled module has no function " ^ name)

(** Release everything the module owns: unwind entries for its regions,
    the code regions themselves (their address ranges are poisoned and
    recycled by {!Emu.release_code}), any host dispatch slots the
    interpreter registered, and the module's linear-memory data blocks
    (GOTs). Idempotent: a second call is a no-op, so one-shot callers and
    cache eviction can race benignly. The whole sequence runs under the
    machine's code-layout lock so it is atomic with respect to concurrent
    link-and-register sequences (which predict blob addresses that
    disposal would otherwise change under them) and so the disposed-flag
    test-and-set is race-free. *)
let dispose ~emu ~unwind cm =
  Emu.with_layout_lock emu (fun () ->
      if not cm.cm_disposed then begin
        cm.cm_disposed <- true;
        List.iter
          (fun r ->
            Unwind.deregister_range unwind ~base:(Code_region.base r)
              ~size:(Code_region.size r);
            Emu.release_code emu r)
          cm.cm_regions;
        List.iter (fun slot -> Emu.remove_runtime emu slot) cm.cm_runtime_slots;
        List.iter
          (fun (addr, size, align) ->
            Memory.free (Emu.memory emu) ~addr ~size ~align)
          cm.cm_data_blocks
      end)

(* ---------------- the shared link step ---------------- *)

(** How {!link_artifact} attributes its time in the back-end's phase
    breakdown, so every back-end's Timing report keeps the shape of the
    paper's figures although they all share one linker. *)
type link_timing =
  | Dlopen  (** gcc: the whole link is "Dlopen"; unwind registration is
                "UnwindInfo" *)
  | Jitlink  (** LLVM: the link is "Link" plus its four
                 "Link/Phase1-Alloc".."Link/Phase4-Lookup" phases
                 (Sec. V-B7); unwind registration is "UnwindInfo" *)
  | Link  (** Cranelift: copying the code and registering its CFI are both
              "Link" (Fig. 4) *)
  | Unscoped  (** DirectEmit, stencil: only "UnwindInfo" is a phase
                  (Fig. 5) *)

let patch_rel32 text off value = Bytes.set_int32_le text off (Int32.of_int value)

let patch_rel24_words text off value_bytes =
  let w = value_bytes asr 2 in
  Bytes.set text off (Char.chr (w land 0xFF));
  Bytes.set text (off + 1) (Char.chr ((w asr 8) land 0xFF));
  Bytes.set text (off + 2) (Char.chr ((w asr 16) land 0xFF))

(** Turn a relocatable {!Artifact.t} into a live {!compiled_module} against
    a given [Emu] layout: build one PLT+GOT for the artifact's undefined
    symbols, predict a base address, resolve externals against the live
    registry, apply relocations into a private copy of the text, and
    register code and unwind tables. The predict-resolve-apply-register
    sequence holds the machine's code-layout lock, so no other domain can
    move the predicted base. The artifact itself is never mutated, so the same
    artifact can be linked any number of times (including into machines
    the producing process never saw).

    Refuses with [Invalid_argument] when the artifact targets another
    architecture, references a runtime symbol this process has not
    installed, or baked an absolute runtime address that differs from the
    live registry — a snapshot can never be mis-linked into a trap.

    [link] says how the link's time shows up in the back-end's phase
    breakdown (see {!link_timing}); it has no effect on the linked code.

    [params] binds the artifact's parameter holes: one value per slot of
    [Artifact.a_params], in order. Int values are patched verbatim into
    [Param] holes ([Param_hi] holes get the sign word); string values get
    a fresh 16-byte SSO struct in linear memory — owned by the returned
    module, freed with it — whose address fills the hole. Binding is a
    pure link-time patch, so one artifact serves every literal variant of
    its shape. Refuses when the vector length or a value's kind does not
    match the artifact's descriptor, or when the artifact has holes and no
    vector is supplied. *)
let link_artifact ?(link = Link) ?(params = ([||] : Artifact.param_value array))
    ~timing ~emu ~registry ~unwind (art : Artifact.t) : compiled_module =
  let scope, phases, unwind_scope =
    match link with
    | Dlopen -> (Some "Dlopen", false, "UnwindInfo")
    | Jitlink -> (Some "Link", true, "UnwindInfo")
    | Link -> (Some "Link", false, "Link")
    | Unscoped -> (None, false, "UnwindInfo")
  in
  let target = Emu.target_of emu in
  if not (String.equal art.Artifact.a_target target.Target.name) then
    invalid_arg
      (Printf.sprintf
         "link_artifact: artifact compiled for %s cannot link into a %s \
          machine"
         art.Artifact.a_target target.Target.name);
  let resolve sym =
    try Registry.addr registry sym
    with Invalid_argument _ ->
      invalid_arg
        ("link_artifact: runtime symbol " ^ sym
       ^ " is not installed in this process")
  in
  List.iter
    (fun (sym, baked) ->
      let live = resolve sym in
      if not (Int64.equal live baked) then
        invalid_arg
          (Printf.sprintf
             "link_artifact: baked address of %s moved (artifact 0x%Lx, \
              process 0x%Lx)"
             sym baked live))
    art.Artifact.a_baked;
  if Array.length params <> Array.length art.Artifact.a_params then
    invalid_arg
      (Printf.sprintf
         "link_artifact: artifact expects %d parameters, %d supplied"
         (Array.length art.Artifact.a_params)
         (Array.length params));
  Array.iteri
    (fun i v ->
      if Artifact.param_kind_of_value v <> art.Artifact.a_params.(i) then
        invalid_arg
          (Printf.sprintf "link_artifact: parameter %d has the wrong kind" i))
    params;
  (* one SSO struct per string parameter, owned by the module like the
     GOT; inline-only so a single 16-byte block holds the whole value *)
  let param_blocks = ref [] in
  let param_word =
    lazy
      (let mem = Emu.memory emu in
       Array.map
         (function
           | Artifact.Pv_int v -> v
           | Artifact.Pv_str s ->
               if String.length s > Sso.inline_max then
                 invalid_arg
                   "link_artifact: string parameter exceeds SSO inline \
                    capacity";
               let addr =
                 Memory.unscoped (fun () -> Sso.alloc mem s)
               in
               param_blocks := (addr, Sso.struct_size, 16) :: !param_blocks;
               Int64.of_int addr)
         params)
  in
  let run_scoped name f =
    match name with Some n -> Timing.scope timing n f | None -> f ()
  in
  let ph = [| 0.0; 0.0; 0.0; 0.0 |] in
  let base, region, got_block, fns =
    run_scoped scope (fun () ->
        (* phase 1: prune symbols, build PLT stubs, allocate *)
        let t0 = Timing.now () in
        let defined =
          List.filter (fun s -> s.Artifact.s_defined) art.Artifact.a_syms
        in
        let undefined =
          List.filter (fun s -> not s.Artifact.s_defined) art.Artifact.a_syms
        in
        let externs =
          List.sort_uniq compare
            (List.map (fun s -> s.Artifact.s_name) undefined)
        in
        (* fail before allocating anything if an external cannot resolve *)
        List.iter (fun sym -> ignore (resolve sym)) externs;
        let mem = Emu.memory emu in
        (* the GOT belongs to the module, not to whichever query happens
           to be executing while a background compile links *)
        let got_bytes = 8 * List.length externs in
        let got_base =
          if externs = [] then 0
          else Memory.unscoped (fun () -> Memory.alloc mem ~align:8 got_bytes)
        in
        let stub_asm = Asm.create target in
        let stub_offsets = Hashtbl.create 16 in
        let text_len = Bytes.length art.Artifact.a_text in
        List.iteri
          (fun k sym ->
            Hashtbl.replace stub_offsets
              (sym ^ "@plt")
              (text_len + Asm.offset stub_asm);
            Asm.emit stub_asm
              (Minst.Jmp_mem (Int64.of_int (got_base + (8 * k)))))
          externs;
        let stubs = Asm.finish stub_asm in
        (* a private copy: relocation patching must not touch the artifact *)
        let text = Bytes.cat art.Artifact.a_text stubs in
        let base, region =
          Emu.with_layout_lock emu (fun () ->
              let base = Emu.next_code_addr emu ~size:(Bytes.length text) in
              ph.(0) <- Timing.now () -. t0;
              (* phase 2: assign addresses, resolve, fill the GOT *)
              let t1 = Timing.now () in
              let sym_addr = Hashtbl.create 64 in
              List.iter
                (fun s ->
                  Hashtbl.replace sym_addr s.Artifact.s_name
                    (base + s.Artifact.s_off))
                defined;
              List.iteri
                (fun k sym ->
                  let addr = resolve sym in
                  Memory.store64 mem (got_base + (8 * k)) addr;
                  Hashtbl.replace sym_addr sym (Int64.to_int addr))
                externs;
              Hashtbl.iter
                (fun plt off -> Hashtbl.replace sym_addr plt (base + off))
                stub_offsets;
              ph.(1) <- Timing.now () -. t1;
              (* phase 3: apply relocations, copy into executable memory *)
              let t2 = Timing.now () in
              List.iter
                (fun r ->
                  match r.Artifact.r_kind with
                  | Artifact.Plt32 ->
                      let target_addr =
                        match Hashtbl.find_opt sym_addr r.Artifact.r_sym with
                        | Some a -> a
                        | None ->
                            invalid_arg
                              ("link_artifact: undefined symbol "
                             ^ r.Artifact.r_sym)
                      in
                      let target_off = target_addr - base in
                      if target.Target.arch = Target.X64 then
                        patch_rel32 text r.Artifact.r_off
                          (target_off - (r.Artifact.r_off + 4))
                      else
                        patch_rel24_words text r.Artifact.r_off
                          (target_off - (r.Artifact.r_off - 1))
                  | Artifact.Abs64 ->
                      let addr =
                        match Hashtbl.find_opt sym_addr r.Artifact.r_sym with
                        | Some a -> Int64.of_int a
                        | None -> resolve r.Artifact.r_sym
                      in
                      Bytes.set_int64_le text r.Artifact.r_off addr
                  | Artifact.Param i ->
                      Bytes.set_int64_le text r.Artifact.r_off
                        (Lazy.force param_word).(i)
                  | Artifact.Param_hi i ->
                      Bytes.set_int64_le text r.Artifact.r_off
                        (Int64.shift_right (Lazy.force param_word).(i) 63))
                art.Artifact.a_relocs;
              let region = Emu.register_code emu text in
              assert (Code_region.base region = base);
              ph.(2) <- Timing.now () -. t2;
              (base, region))
        in
        (* phase 4: symbol lookup *)
        let t3 = Timing.now () in
        let fns =
          List.filter_map
            (fun s ->
              if s.Artifact.s_defined then
                Some (s.Artifact.s_name, Int64.of_int (base + s.Artifact.s_off))
              else None)
            art.Artifact.a_syms
        in
        ph.(3) <- Timing.now () -. t3;
        ( base,
          region,
          (if externs = [] then None else Some (got_base, got_bytes, 8)),
          fns ))
  in
  if phases then begin
    Timing.add timing "Link/Phase1-Alloc" ph.(0);
    Timing.add timing "Link/Phase2-Resolve" ph.(1);
    Timing.add timing "Link/Phase3-Apply" ph.(2);
    Timing.add timing "Link/Phase4-Lookup" ph.(3)
  end;
  Timing.scope timing unwind_scope (fun () ->
      List.iter
        (fun f ->
          Unwind.register unwind
            ~start:(base + f.Artifact.uf_start)
            ~size:f.Artifact.uf_size ~sync_only:f.Artifact.uf_sync_only
            f.Artifact.uf_rows)
        art.Artifact.a_unwind);
  {
    cm_functions = fns;
    cm_code_size = art.Artifact.a_code_size;
    cm_stats = art.Artifact.a_stats;
    cm_regions = [ region ];
    cm_runtime_slots = [];
    cm_data_blocks =
      !param_blocks @ (match got_block with Some b -> [ b ] | None -> []);
    cm_disposed = false;
  }

(* ---------------- back-ends ---------------- *)

(** A back-end that translates straight into host dispatch slots. *)
type host =
  params:Artifact.param_value array ->
  timing:Timing.t ->
  emu:Emu.t ->
  registry:Registry.t ->
  Qcomp_ir.Func.modul ->
  compiled_module

(** What a back-end does with an IR module. *)
type compile =
  | Native of {
      artifact :
        timing:Timing.t ->
        target:Target.t ->
        registry:Registry.t ->
        Qcomp_ir.Func.modul ->
        Artifact.t;
          (** Relocatable compilation: an {!Artifact.t} that
              {!link_artifact} (this process or a later one) turns into a
              live module. Parameter holes in the IR become
              [Param]/[Param_hi] relocations bound at link time. *)
      link : link_timing;
    }
      (** Machine code, compiled once and linked by the shared
          {!link_artifact}. *)
  | Host of host
      (** Host dispatch slots that die with the process (the interpreter):
          nothing relocatable to snapshot. *)

type t = {
  name : string;
  supports_params : bool;
      (** Whether this back-end compiles {!Qcomp_ir.Op.Param} holes
          (emitting patchable immediates / baked per-bind constants).
          Back-ends that don't are given fully-baked whole plans by the
          serving layer. *)
  compile : compile;
}

let name b = b.name
let supports_params b = b.supports_params

(** [None] for back-ends whose output cannot outlive the process. *)
let compile_artifact b =
  match b.compile with Native n -> Some n.artifact | Host _ -> None

(** Compile and link in one step. [params] binds the module's parameter
    holes (required when the IR contains [Op.Param]); back-ends with
    [supports_params = false] refuse a non-empty vector. *)
let compile_module b ?(params = [||]) ~timing ~emu ~registry ~unwind m =
  if Array.length params > 0 && not b.supports_params then
    invalid_arg (b.name ^ ": parameterized modules are not supported");
  match b.compile with
  | Native { artifact; link } ->
      let art = artifact ~timing ~target:(Emu.target_of emu) ~registry m in
      link_artifact ~link ~params ~timing ~emu ~registry ~unwind art
  | Host compile -> compile ~params ~timing ~emu ~registry m
