(** Cranelift-like register allocation (Sec. VI-C3).

    A modified linear scan, as the paper describes: live ranges are
    computed per virtual register by several passes over the code (block
    liveness fixpoint, then a backward range-building scan), non-overlapping
    move-related ranges are merged into bundles, and allocation assigns each
    bundle to a physical register whose occupancy is tracked in a per-preg
    B-tree — the data structure whose traversal the paper measures at ~6%
    of register-allocation time. Bundles that fit no register are spilled
    (we spill whole bundles instead of splitting them — a documented
    simplification). *)

open Qcomp_support
open Qcomp_vm

type t = {
  assignment : int array;  (** vreg ordinal -> preg, or -1 = spilled *)
  spill_slot : int array;  (** vreg ordinal -> frame offset, or -1 *)
  block_pref : (int * int, int) Hashtbl.t;
      (** (vreg ordinal, block) -> block-local preg for spilled vregs whose
          range could be re-allocated inside that block (bundle splitting) *)
  live_out : Bitset.t array;
      (** per-block liveness, used to elide dead write-through stores *)
  frame_size : int;  (** bytes of spill area *)
  num_spilled : int;
  btree_ops : int;  (** B-tree insert/lookup count (statistics) *)
  liveness_passes : int;
}

let caller_saved (target : Target.t) =
  Array.to_list target.Target.allocatable
  |> List.filter (fun r -> not (Target.is_callee_saved target r))

(* registers reserved for spill-code scratches: never allocated *)
let ra_scratch (target : Target.t) =
  match target.Target.arch with
  | Target.X64 -> (10, 11)
  | Target.A64 -> (17, 18)

let allocatable_pregs (target : Target.t) =
  let s1, s2 = ra_scratch target in
  Array.to_list target.Target.allocatable
  |> List.filter (fun r -> r <> s1 && r <> s2 && r <> target.Target.scratch)

let run (vc : Vcode.t) : t =
  let target = vc.Vcode.target in
  let nv = vc.Vcode.num_vregs in
  let nb = vc.Vcode.nblocks in
  let vidx r = r - Vcode.vreg_base in
  (* ---- instruction numbering: inst k of block b covers points
     [2*(start_b+k), 2*(start_b+k)+1] (use point, def point) ---- *)
  let block_start = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    block_start.(b + 1) <- block_start.(b) + Vec.length vc.Vcode.insts.(b)
  done;
  let point b k = 2 * (block_start.(b) + k) in
  (* ---- liveness fixpoint over blocks (pass 1 over the IR) ---- *)
  let live_in = Array.init nb (fun _ -> Bitset.create nv) in
  let live_out = Array.init nb (fun _ -> Bitset.create nv) in
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr passes;
    for b = nb - 1 downto 0 do
      let out = live_out.(b) in
      List.iter
        (fun s -> ignore (Bitset.union_into ~src:live_in.(s) out))
        vc.Vcode.succs.(b);
      let live = Bitset.copy out in
      for k = Vec.length vc.Vcode.insts.(b) - 1 downto 0 do
        let defs, uses = Vcode.defs_uses (Vec.get vc.Vcode.insts.(b) k) in
        List.iter (fun d -> if Vcode.is_vreg d then Bitset.remove live (vidx d)) defs;
        List.iter (fun u -> if Vcode.is_vreg u then Bitset.add live (vidx u)) uses
      done;
      if not (Bitset.equal live live_in.(b)) then begin
        ignore (Bitset.union_into ~src:live live_in.(b));
        changed := true
      end
    done
  done;
  (* ---- range building (pass 2) ---- *)
  let ranges : (int * int) list array = Array.make nv [] in
  let add_range v s e = if e > s then ranges.(v) <- (s, e) :: ranges.(v) in
  for b = 0 to nb - 1 do
    let n = Vec.length vc.Vcode.insts.(b) in
    let bstart = point b 0 in
    let bend = point b n in
    let range_end = Array.make nv (-1) in
    Bitset.iter (fun v -> range_end.(v) <- bend) live_out.(b);
    for k = n - 1 downto 0 do
      let defs, uses = Vcode.defs_uses (Vec.get vc.Vcode.insts.(b) k) in
      let p = point b k in
      List.iter
        (fun d ->
          if Vcode.is_vreg d then begin
            let v = vidx d in
            if range_end.(v) >= 0 then begin
              add_range v (p + 1) range_end.(v);
              range_end.(v) <- -1
            end
            else add_range v (p + 1) (p + 2)
          end)
        defs;
      List.iter
        (fun u ->
          if Vcode.is_vreg u then begin
            let v = vidx u in
            if range_end.(v) < 0 then range_end.(v) <- p + 1
          end)
        uses
    done;
    for v = 0 to nv - 1 do
      if range_end.(v) >= 0 then begin
        add_range v bstart range_end.(v);
        range_end.(v) <- -1
      end
    done
  done;
  (* ---- bundle merging via union-find (move-related, non-overlapping) ---- *)
  let parent = Array.init nv (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); find parent.(i)) in
  let bundle_ranges = Array.map (fun r -> List.sort compare r) ranges in
  let overlaps a b =
    (* both sorted; sweep *)
    let rec go a b =
      match (a, b) with
      | [], _ | _, [] -> false
      | (s1, e1) :: ra, (s2, e2) :: rb ->
          if e1 <= s2 then go ra b
          else if e2 <= s1 then go a rb
          else true
    in
    go a b
  in
  let merge_sorted a b = List.merge compare a b in
  for b = 0 to nb - 1 do
    Vec.iter
      (fun inst ->
        match inst with
        | Minst.Mov_rr (d, s) when Vcode.is_vreg d && Vcode.is_vreg s ->
            let rd = find (vidx d) and rs = find (vidx s) in
            if rd <> rs && not (overlaps bundle_ranges.(rd) bundle_ranges.(rs))
            then begin
              parent.(rs) <- rd;
              bundle_ranges.(rd) <- merge_sorted bundle_ranges.(rd) bundle_ranges.(rs);
              bundle_ranges.(rs) <- []
            end
        | _ -> ())
      vc.Vcode.insts.(b)
  done;
  (* ---- per-preg occupancy B-trees, seeded with reservations ---- *)
  let btree_ops = ref 0 in
  let occupancy : int list Btree.t array = Array.init 32 (fun _ -> Btree.create ()) in
  let occupy preg s e =
    incr btree_ops;
    let prev = Option.value ~default:[] (Btree.find occupancy.(preg) s) in
    Btree.insert occupancy.(preg) s (e :: prev)
  in
  let conflicts preg s e =
    incr btree_ops;
    (match Btree.find_le occupancy.(preg) s with
    | Some (_, ends) when List.exists (fun e2 -> e2 > s) ends -> true
    | _ -> (
        incr btree_ops;
        match Btree.find_ge occupancy.(preg) s with
        | Some (s2, _) when s2 < e && s2 >= s -> true
        | _ -> false))
  in
  List.iter
    (fun (b, from_pos, to_pos, preg) ->
      occupy preg (point b from_pos) (point b to_pos + 2))
    vc.Vcode.reservations;
  List.iter
    (fun (b, pos) ->
      List.iter
        (fun preg -> occupy preg (point b pos) (point b pos + 2))
        (caller_saved target))
    vc.Vcode.call_positions;
  (* ---- allocation: bundles in start order ---- *)
  let bundles =
    List.init nv (fun v -> v)
    |> List.filter (fun v -> find v = v && bundle_ranges.(v) <> [])
    |> List.sort (fun a b ->
           compare (fst (List.hd bundle_ranges.(a))) (fst (List.hd bundle_ranges.(b))))
  in
  let bundle_preg = Array.make nv (-1) in
  let bundle_spilled = Array.make nv false in
  let pregs = allocatable_pregs target in
  let num_spilled = ref 0 in
  List.iter
    (fun bu ->
      let segs = bundle_ranges.(bu) in
      let fits preg = List.for_all (fun (s, e) -> not (conflicts preg s e)) segs in
      match List.find_opt fits pregs with
      | Some preg ->
          bundle_preg.(bu) <- preg;
          List.iter (fun (s, e) -> occupy preg s e) segs
      | None ->
          bundle_spilled.(bu) <- true;
          incr num_spilled)
    bundles;
  (* ---- results per vreg ---- *)
  let assignment = Array.make nv (-1) in
  let spill_slot = Array.make nv (-1) in
  let frame = ref 0 in
  for v = 0 to nv - 1 do
    let bu = find v in
    if bundle_spilled.(bu) then begin
      (* one slot per bundle *)
      if spill_slot.(bu) < 0 then begin
        spill_slot.(bu) <- !frame;
        frame := !frame + 8
      end;
      spill_slot.(v) <- spill_slot.(bu)
    end
    else assignment.(v) <- bundle_preg.(bu)
  done;
  (* ---- block-local second chance (regalloc2 splits failing bundles; we
     approximate the common effect): give each spilled vreg a register for
     the parts of its live range inside a single block where one is free.
     The emitter stores the block's last def to the stack slot when the
     value is live out, so cross-block flow still goes through memory and
     correctness never depends on the split. ---- *)
  let block_pref : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let block_of_point p =
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if 2 * block_start.(mid) <= p then bs mid hi else bs lo (mid - 1)
    in
    bs 0 (nb - 1)
  in
  for v = 0 to nv - 1 do
    if assignment.(v) < 0 && spill_slot.(v) >= 0 && ranges.(v) <> [] then begin
      let spans = Hashtbl.create 4 in
      List.iter
        (fun (s, e) ->
          let b = block_of_point s in
          let s0, e0 = Option.value ~default:(s, e) (Hashtbl.find_opt spans b) in
          Hashtbl.replace spans b (min s s0, max e e0))
        ranges.(v);
      Hashtbl.iter
        (fun b (s, e) ->
          match List.find_opt (fun p -> not (conflicts p s e)) pregs with
          | Some preg ->
              occupy preg s e;
              Hashtbl.replace block_pref (v, b) preg
          | None -> ())
        spans
    end
  done;
  {
    assignment;
    spill_slot;
    block_pref;
    live_out;
    frame_size = !frame;
    num_spilled = !num_spilled;
    btree_ops = !btree_ops;
    liveness_passes = !passes;
  }
