(** DirectEmit's single analysis pass (Sec. VII of the paper).

    One traversal computes: block order (reverse postorder), the dominator
    tree and natural loops (for the spill heuristic), and which values need
    stack homes: every value used outside its defining block, live across
    a clobber point, or feeding a phi. That covers every value live out of
    a block, so no dataflow liveness runs. Linear ids are stored in the
    free [scratch] slot of the IR — no hash tables. *)

open Qcomp_support
open Qcomp_ir

type t = {
  order : int array;  (** RPO block order *)
  loops : Graph.Func_analysis.loops;
  needs_slot : bool array;
      (** value must live in a stack slot: crosses blocks or a call *)
  last_use : int array;  (** value -> local position of last use, -1 if none *)
  def_pos : int array;  (** value -> local position of definition *)
  def_block : int array;
}

let compute (f : Func.t) : t =
  let nv = Func.num_insts f in
  let order = Graph.Func_analysis.rpo f in
  let dt = Graph.Func_analysis.dominators f in
  let loops = Graph.Func_analysis.natural_loops f dt in
  let needs_slot = Array.make nv false in
  let last_use = Array.make nv (-1) in
  let def_pos = Array.make nv (-1) in
  let def_block = Array.make nv (-1) in
  (* Arguments are defined at position -1 of the entry block. *)
  for a = 0 to Func.n_args f - 1 do
    def_block.(a) <- Func.entry_block
  done;
  Array.iter
    (fun b ->
      let last_call = ref (-1) in
      Vec.iteri
        (fun pos i ->
          (* linear instruction id in the scratch slot, as DirectEmit does *)
          Func.set_scratch f i pos;
          (match Func.op f i with
          | Op.Phi ->
              (* inputs are read at predecessor ends: they stay in their
                 pred's registers, but the phi itself needs a home *)
              needs_slot.(i) <- true
          | _ ->
              Func.iter_operands f i (fun v ->
                  last_use.(v) <- pos;
                  if def_block.(v) <> b then needs_slot.(v) <- true
                  else if def_pos.(v) < !last_call then needs_slot.(v) <- true));
          if Func.ty f i <> Ty.Void then begin
            def_pos.(i) <- pos;
            def_block.(i) <- b
          end;
          match Func.op f i with
          | Op.Call | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem | Op.Smultrap
          | Op.Longmulfold ->
              (* treat ops that may clobber fixed registers or call out as
                 clobber points *)
              last_call := pos
          | _ -> ())
        (Func.block_insts f b))
    order;
  (* phi inputs are used at predecessor terminators *)
  Array.iter
    (fun b ->
      Vec.iter
        (fun i ->
          if Func.op f i = Op.Phi then
            List.iter
              (fun (pred, v) ->
                ignore pred;
                needs_slot.(v) <- true)
              (Func.phi_incoming f i))
        (Func.block_insts f b))
    order;
  { order; loops; needs_slot; last_use; def_pos; def_block }
