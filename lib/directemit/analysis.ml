(** DirectEmit's single analysis pass (Sec. VII of the paper; the liveness
    half of TPDE, Schwarz et al.).

    One traversal computes:
    - the block layout: reverse postorder with every natural loop laid out
      contiguously, header first, so a loop occupies one index range;
    - a liveness interval per value over that layout: from its defining
      block to its last use, phi inputs counting as uses at the end of
      their predecessor, extended to the last block of the outermost loop
      that holds a use but not the definition. On this layout the interval
      covers every block the value is live out of, so no dataflow liveness
      runs ([Liveness] stays the tests' oracle);
    - use and predecessor counts, the phis of each block, which values
      are live across a call (the emitter keeps those in callee-saved
      registers when it can), and which of them are live across a call
      inside a loop that does not define them (those that do not get a
      callee-saved register are stored to their stack home at their
      definition; every other value is written back only when its
      register is taken). A call to an
      {!intrinsic} is not a call here: it clobbers no live register.

    Linear ids are stored in the free [scratch] slot of the IR — no hash
    tables. *)

open Qcomp_support
open Qcomp_ir

(** Runtime calls DirectEmit inlines, with an out-of-line call for the
    cases the inline code does not cover. *)
type intrinsic = Str_eq | Str_hash

(** The module's extern table mapped to the intrinsic each extern is, by
    name. *)
let intrinsics (m : Func.modul) =
  Array.init (Func.num_externs m) (fun id ->
      match (Func.extern m id).Func.ext_name with
      | "umbra_strEq" -> Some Str_eq
      | "umbra_strHash" -> Some Str_hash
      | _ -> None)

type t = {
  order : int array;  (** layout: the blocks in emission order *)
  index : int array;  (** block -> layout index, -1 when unreachable *)
  depth : int array;  (** block -> loop nesting depth, 0 outside loops *)
  loop_end : int array;
      (** loop header -> layout index of the loop's last block, -1 for
          other blocks *)
  loop_calls : bool array;  (** loop header -> a block of the loop calls *)
  preds : int array;  (** block -> number of reachable predecessors *)
  phis : int list array;  (** block -> its phis *)
  lo : int array;  (** value -> layout index of its defining block *)
  hi : int array;  (** value -> last layout index it is live in *)
  last_use : int array;
      (** value -> position of its last use in block [hi], [max_int] when
          it stays live to that block's end *)
  ext_end : int array;
      (** value -> last block of the outermost loop that uses it but does
          not define it, -1 when there is none *)
  uses : int array;  (** value -> number of operand uses *)
  crosses_call : bool array;
      (** value is live across a call: the emitter gives it a callee-saved
          register when one is free *)
  home_at_def : bool array;
      (** value is live across a call and through a loop that does not
          define it: its home is written once, at the definition, not at
          every call in the loop *)
}

(* The loop forest, from the retreating edges of the reverse postorder. In
   a reducible CFG each retreating edge u -> h is a back edge, and h's loop
   is h plus every block that reaches u backwards without passing h. Umbra
   never generates another kind of CFG: a walk that reaches the entry
   block proves one, and is refused. Returns the predecessor lists, each
   block's innermost loop header (-1 outside loops), each header's parent
   loop header, the loop depth per block, and the loops as (header,
   members) pairs. [Graph]'s natural loops give the same forest from the
   dominator tree, but building that tree and its hash-table bodies made
   this pass about 40 % slower, 6-8 % of DirectEmit's compile time. *)
let loop_forest f rpo nb =
  let number = Array.make nb (-1) in
  Array.iteri (fun i b -> number.(b) <- i) rpo;
  let preds = Array.make nb [] in
  let latches = Array.make nb [] in
  let headers = ref [] in
  Array.iter
    (fun u ->
      Func.iter_succs f u (fun h ->
          preds.(h) <- u :: preds.(h);
          if number.(h) <= number.(u) then begin
            if latches.(h) = [] then headers := h :: !headers;
            latches.(h) <- u :: latches.(h)
          end))
    rpo;
  let seen = Array.make nb (-1) in
  let loops =
    List.map
      (fun h ->
        seen.(h) <- h;
        let body = ref [ h ] in
        let rec walk b =
          if seen.(b) <> h then begin
            if b = Func.entry_block then invalid_arg "DirectEmit: irreducible control flow";
            seen.(b) <- h;
            body := b :: !body;
            List.iter walk preds.(b)
          end
        in
        List.iter walk latches.(h);
        (List.length !body, h, !body))
      !headers
  in
  (* outermost first: the innermost loop seen so far that holds a header is
     its parent *)
  let loops = List.sort (fun (a, _, _) (b, _, _) -> compare b a) loops in
  let header_of = Array.make nb (-1) in
  let parent = Array.make nb (-1) in
  let depth = Array.make nb 0 in
  List.iter
    (fun (_, h, body) ->
      parent.(h) <- header_of.(h);
      List.iter
        (fun b ->
          header_of.(b) <- h;
          depth.(b) <- depth.(b) + 1)
        body)
    loops;
  (preds, header_of, parent, depth, List.map (fun (_, h, body) -> (h, body)) loops)

(* Reverse postorder with each loop made contiguous: walking the RPO, a
   block that belongs to a child loop of the region being placed pulls in
   that whole loop (its header comes first in RPO). *)
let layout rpo header_of parent nb =
  let out = Array.make (Array.length rpo) 0 and n = ref 0 in
  let placed = Array.make nb false in
  (* climb [l]'s loop chain up to [h]: the loop just below [h] ([c]), -1
     when [l] is [h] itself, -2 when [h] does not hold it *)
  let rec below h l c = if l = h then c else if l < 0 then -2 else below h parent.(l) l in
  let rec place h =
    Array.iter
      (fun b ->
        if not placed.(b) then begin
          let c = below h header_of.(b) (-1) in
          if c >= 0 then place c
          else if c = -1 then begin
            placed.(b) <- true;
            out.(!n) <- b;
            incr n
          end
        end)
      rpo
  in
  place (-1);
  out

let compute ~intrinsics (f : Func.t) : t =
  let nv = Func.num_insts f in
  let nb = Func.num_blocks f in
  let rpo = Graph.Func_analysis.rpo f in
  let pred_lists, header_of, parent, depth, loops = loop_forest f rpo nb in
  let order = if loops = [] then rpo else layout rpo header_of parent nb in
  let index = Array.make nb (-1) in
  Array.iteri (fun k b -> index.(b) <- k) order;
  let loop_end = Array.make nb (-1) in
  List.iter
    (fun (h, body) -> loop_end.(h) <- List.fold_left (fun m b -> max m index.(b)) (-1) body)
    loops;
  let nl = Array.length order in
  let preds = Array.map List.length pred_lists in
  let phis = Array.make nb [] in
  let lo = Array.make nv (-1) in
  let hi = Array.make nv (-1) in
  let last_use = Array.make nv (-1) in
  let ext_end = Array.make nv (-1) in
  let uses = Array.make nv 0 in
  (* live across a call within its defining block, then across any call *)
  let crosses_call = Array.make nv false in
  let home_at_def = Array.make nv false in
  let def_pos = Array.make nv (-1) in
  (* per layout index: first and last call position, and how many blocks
     before it hold a call *)
  let first_call = Array.make nl max_int in
  let last_call = Array.make nl (-1) in
  let calls_before = Array.make (nl + 1) 0 in
  (* Arguments are defined at position -1 of the entry block. *)
  for a = 0 to Func.n_args f - 1 do
    lo.(a) <- 0;
    hi.(a) <- 0
  done;
  (* the outermost loop from [l] outwards that does not hold layout index [d] *)
  let rec outermost_without d l best =
    if l < 0 || (index.(l) <= d && d <= loop_end.(l)) then best
    else outermost_without d parent.(l) l
  in
  (* [v] is used in block [b] (layout index [k]) at position [pos] *)
  let use v b k pos =
    uses.(v) <- uses.(v) + 1;
    if k > hi.(v) then begin
      hi.(v) <- k;
      last_use.(v) <- pos
    end
    else if k = hi.(v) && pos > last_use.(v) then last_use.(v) <- pos;
    if header_of.(b) >= 0 then begin
      let l = outermost_without lo.(v) header_of.(b) (-1) in
      if l >= 0 && loop_end.(l) > ext_end.(v) then ext_end.(v) <- loop_end.(l)
    end
  in
  Array.iteri
    (fun k b ->
      let lc = ref (-1) in
      Vec.iteri
        (fun pos i ->
          (* linear instruction id in the scratch slot, as DirectEmit does *)
          Func.set_scratch f i pos;
          (match Func.op f i with
          | Op.Phi -> phis.(b) <- i :: phis.(b)
          | _ ->
              Func.iter_operands f i (fun v ->
                  use v b k pos;
                  if lo.(v) = k && def_pos.(v) < !lc then crosses_call.(v) <- true));
          if Func.ty f i <> Ty.Void then begin
            def_pos.(i) <- pos;
            lo.(i) <- k;
            hi.(i) <- k
          end;
          (* an intrinsic's stub saves and restores every live register *)
          if Func.op f i = Op.Call && intrinsics.(Func.z f i) = None then begin
            lc := pos;
            if first_call.(k) = max_int then first_call.(k) <- pos;
            last_call.(k) <- pos
          end)
        (Func.block_insts f b);
      calls_before.(k + 1) <- (calls_before.(k) + if last_call.(k) >= 0 then 1 else 0))
    order;
  (* phi inputs are used at the end of their predecessor, which may come
     later in the layout (back edges) *)
  Array.iter
    (fun b ->
      phis.(b) <- List.rev phis.(b);
      List.iter
        (fun i ->
          let base = Func.x f i in
          for j = 0 to Func.n f i - 1 do
            let p = Func.extra_get f (base + (2 * j)) in
            let v = Func.extra_get f (base + (2 * j) + 1) in
            if v >= 0 && index.(p) >= 0 then
              use v p index.(p) (Vec.length (Func.block_insts f p))
          done)
        phis.(b))
    order;
  let loop_calls = Array.make nb false in
  List.iter
    (fun (h, _) ->
      loop_calls.(h) <- calls_before.(loop_end.(h) + 1) > calls_before.(index.(h)))
    loops;
  for v = 0 to nv - 1 do
    if lo.(v) >= 0 then begin
      if ext_end.(v) >= hi.(v) then begin
        hi.(v) <- ext_end.(v);
        last_use.(v) <- max_int
      end;
      (* the walk caught calls between a definition and a later operand use
         in the same block; this adds every use in a later block and phi
         inputs read at the end of their own block *)
      let l = lo.(v) and h = hi.(v) in
      let crosses =
        crosses_call.(v)
        ||
        if h > l then
          last_call.(l) > def_pos.(v)
          || calls_before.(h) > calls_before.(l + 1)
          || first_call.(h) < last_use.(v)
        else last_call.(l) > def_pos.(v) && last_use.(v) > last_call.(l)
      in
      crosses_call.(v) <- crosses;
      home_at_def.(v) <- crosses && ext_end.(v) >= 0
    end
  done;
  {
    order;
    index;
    depth;
    loop_end;
    loop_calls;
    preds;
    phis;
    lo;
    hi;
    last_use;
    ext_end;
    uses;
    crosses_call;
    home_at_def;
  }
