(** The Cranelift-like back-end (Sec. VI), assembled from the front-end,
    the ISel-prepare passes, tree-matching instruction selection, the
    linear-scan/B-tree register allocator and the emitter. Phase names
    match Fig. 4: IRGen, IRPasses, ISelPrepare, ISel, RegAlloc, Emit,
    Link. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm
open Qcomp_runtime

let name = "cranelift"

let compile_artifact ~features ~timing ~(target : Target.t) ~registry
    (m : Func.modul) : Qcomp_backend.Artifact.t =
  (* Cranelift emits no relocations: every runtime/extern address is an
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
  let asm = Asm.create target in
  let fns = ref [] in
  let spills = ref 0 in
  let btree_ops = ref 0 in
  Vec.iter
    (fun f ->
      (* IRGen: Umbra IR -> CIR (one function at a time, as in Cranelift) *)
      let cir =
        Timing.scope timing "IRGen" (fun () ->
            Frontend.translate ~features ~extern_addr ~rt_addr f)
      in
      (* IRPasses: CFG/domtree computation on CIR *)
      Timing.scope timing "IRPasses" (fun () ->
          let module G = struct
            type t = Cir.func

            let num_nodes (c : t) = c.Cir.nblocks
            let entry (_ : t) = 0
            let iter_succs c b k = List.iter k (Cir.succs c b)
          end in
          let module A = Graph.Make (G) in
          let dt = A.dominators cir in
          ignore (A.natural_loops cir dt));
      let vc = Vcode.create target cir.Cir.nblocks in
      (* ISelPrepare: the three metadata passes *)
      let prep =
        Timing.scope timing "ISelPrepare" (fun () -> Isel.prepare cir vc ~target)
      in
      (* ISel: tree-matching lowering *)
      Timing.scope timing "ISel" (fun () -> Isel.lower cir ~target ~rt_addr ~prep vc);
      (* RegAlloc *)
      let ra = Timing.scope timing "RegAlloc" (fun () -> Regalloc.run vc) in
      (* Emit *)
      let fr = Timing.scope timing "Emit" (fun () -> Cemit.emit ~asm vc ra) in
      spills := !spills + fr.Cemit.fr_spills;
      btree_ops := !btree_ops + fr.Cemit.fr_btree_ops;
      fns := (f.Func.name, fr) :: !fns)
    m.Func.funcs;
  let code = Timing.scope timing "Link" (fun () -> Asm.finish asm) in
  {
    Qcomp_backend.Artifact.a_backend = name;
    a_target = target.Target.name;
    a_text = code;
    a_syms =
      List.rev_map
        (fun (n, fr) ->
          {
            Qcomp_backend.Artifact.s_name = n;
            s_off = fr.Cemit.fr_start;
            s_size = fr.Cemit.fr_size;
            s_defined = true;
          })
        !fns;
    a_relocs = [];
    a_unwind =
      List.rev_map
        (fun (_, fr) ->
          {
            Qcomp_backend.Artifact.uf_start = fr.Cemit.fr_start;
            uf_size = fr.Cemit.fr_size;
            uf_sync_only = false;
            uf_rows = fr.Cemit.fr_rows;
          })
        !fns;
    a_baked =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) baked []);
    a_params = [||];
    a_stats = [ ("spilled_bundles", !spills); ("btree_ops", !btree_ops) ];
    a_code_size = Bytes.length code;
  }

(** The back-end with the custom CIR instructions of Table II switched by
    [features]. Cranelift compiles whole plans only: parameterized shapes
    fall back to a param-capable tier (or whole-plan compilation) in the
    serving layer. Copying the code to executable memory and registering
    the manually generated CFI are both attributed to Link, as in Fig. 4. *)
let backend features =
  {
    Qcomp_backend.Backend.name;
    supports_params = false;
    compile = Native { artifact = compile_artifact ~features; link = Link };
  }
