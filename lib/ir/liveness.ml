(** Block-granularity liveness for Umbra IR values.

    Backward dataflow over the CFG. Phi inputs are treated as uses at the
    end of the corresponding predecessor (standard SSA liveness), so a phi's
    own block does not keep its inputs live. DirectEmit consumes this to
    approximate live intervals; the verifier and tests use it as an oracle. *)

open Qcomp_support

type t = {
  live_in : Bitset.t array;  (** per block, over value ids *)
  live_out : Bitset.t array;
}

let compute (f : Func.t) =
  let nb = Func.num_blocks f in
  let nv = Func.num_insts f in
  let live_in = Array.init nb (fun _ -> Bitset.create nv) in
  let live_out = Array.init nb (fun _ -> Bitset.create nv) in
  (* Per-block: def set and upward-exposed-use set (phi uses excluded,
     phi defs included). *)
  let defs = Array.init nb (fun _ -> Bitset.create nv) in
  let gen = Array.init nb (fun _ -> Bitset.create nv) in
  (* Phi uses contribute to the *predecessor's* live-out. *)
  let phi_uses = Array.make nb [] (* per pred block: value list *) in
  for b = 0 to nb - 1 do
    let insts = Func.block_insts f b in
    Vec.iter
      (fun i ->
        (match Func.op f i with
        | Op.Phi ->
            List.iter
              (fun (pred, v) ->
                if v >= 0 then phi_uses.(pred) <- v :: phi_uses.(pred))
              (Func.phi_incoming f i)
        | _ ->
            Func.iter_operands f i (fun v ->
                if v >= 0 && not (Bitset.mem defs.(b) v) then
                  Bitset.add gen.(b) v));
        if Func.ty f i <> Ty.Void then Bitset.add defs.(b) i)
      insts
  done;
  (* Arguments are defined in the entry block. *)
  for a = 0 to Func.n_args f - 1 do
    Bitset.add defs.(Func.entry_block) a
  done;
  (* Iterate to fixpoint in reverse RPO. *)
  let order = Graph.Func_analysis.rpo f in
  let changed = ref true in
  let tmp = Bitset.create nv in
  while !changed do
    changed := false;
    for oi = Array.length order - 1 downto 0 do
      let b = order.(oi) in
      (* live_out(b) = union over succs s of (live_in(s)) plus phi uses
         flowing along the edge b->s (already folded into phi_uses.(b)). *)
      Bitset.clear tmp;
      Func.iter_succs f b (fun s -> ignore (Bitset.union_into ~src:live_in.(s) tmp));
      List.iter (fun v -> Bitset.add tmp v) phi_uses.(b);
      if not (Bitset.equal tmp live_out.(b)) then begin
        ignore (Bitset.union_into ~src:tmp live_out.(b));
        changed := true
      end;
      (* live_in(b) = gen(b) ∪ (live_out(b) \ defs(b)) *)
      Bitset.clear tmp;
      ignore (Bitset.union_into ~src:live_out.(b) tmp);
      Bitset.iter (fun v -> Bitset.remove tmp v) defs.(b);
      ignore (Bitset.union_into ~src:gen.(b) tmp);
      if not (Bitset.equal tmp live_in.(b)) then begin
        ignore (Bitset.union_into ~src:tmp live_in.(b));
        changed := true
      end
    done
  done;
  { live_in; live_out }
