(** MIR passes (Sec. V-B4/B5): out-of-SSA (PHIElimination), two-address
    rewriting, the "fast" and "greedy" register allocators with their
    required analyses (liveness, loop info, block frequency), and
    prologue/epilogue insertion. *)

open Qcomp_support
open Qcomp_vm

(* ---------------- PHI elimination ---------------- *)

(* Replace phis with staged copies at the end of each predecessor.
   Reservation/call positions are remapped as instructions move. *)
let phi_elim (m : Mir.t) =
  let remap b pos_map n =
    let map_pos p = if p <= n then pos_map.(p) else p in
    m.Mir.reservations <-
      List.map
        (fun (rb, f, t, p) -> if rb = b then (rb, map_pos f, map_pos t, p) else (rb, f, t, p))
        m.Mir.reservations;
    m.Mir.call_positions <-
      List.map (fun (cb, pos) -> if cb = b then (cb, map_pos pos) else (cb, pos)) m.Mir.call_positions
  in
  let nb = Array.length m.Mir.blocks in
  let is_term (i : Mir.minst) =
    match i with
    | Mir.M (Minst.Jmp _ | Minst.Jcc _ | Minst.Ret | Minst.Brk _) -> true
    | _ -> false
  in
  (* collect copies per predecessor: (pred, dst, src) *)
  let copies = Array.make nb [] in
  for b = 0 to nb - 1 do
    let keep = Vec.create ~dummy:(Mir.M Minst.Nop) () in
    let n = Vec.length m.Mir.blocks.(b).Mir.insts in
    let pos_map = Array.make (n + 1) 0 in
    Vec.iteri
      (fun k i ->
        pos_map.(k) <- Vec.length keep;
        match i with
        | Mir.Mphi { dst; incoming } ->
            Array.iter (fun (pred, v) -> copies.(pred) <- (dst, v) :: copies.(pred)) incoming
        | other -> ignore (Vec.push keep other))
      m.Mir.blocks.(b).Mir.insts;
    pos_map.(n) <- Vec.length keep;
    m.Mir.blocks.(b).Mir.insts <- keep;
    remap b pos_map n
  done;
  (* insert staged parallel copies before each pred's terminator *)
  for pred = 0 to nb - 1 do
    match copies.(pred) with
    | [] -> ()
    | moves ->
        let blk = m.Mir.blocks.(pred) in
        let v = blk.Mir.insts in
        let n = Vec.length v in
        let rec find k = if k > 0 && is_term (Vec.get v (k - 1)) then find (k - 1) else k in
        let at = find n in
        let nv = Vec.create ~dummy:(Mir.M Minst.Nop) () in
        for k = 0 to at - 1 do
          ignore (Vec.push nv (Vec.get v k))
        done;
        (* parallel-move sequencing: emit copies whose destination no other
           pending copy still reads; break cycles by saving one destination
           in a fresh vreg *)
        let push_mov d s = ignore (Vec.push nv (Mir.M (Minst.Mov_rr (d, s)))) in
        let rec seq pending =
          match pending with
          | [] -> ()
          | _ -> (
              let ready, blocked =
                List.partition
                  (fun (d, _) -> not (List.exists (fun (_, s) -> s = d) pending))
                  pending
              in
              match ready with
              | _ :: _ ->
                  List.iter (fun (d, s) -> push_mov d s) ready;
                  seq blocked
              | [] -> (
                  match pending with
                  | (d, s) :: rest ->
                      let t = Mir.new_vreg m in
                      push_mov t d;
                      let rest =
                        List.map
                          (fun (d2, s2) -> (d2, if s2 = d then t else s2))
                          rest
                      in
                      push_mov d s;
                      seq rest
                  | [] -> assert false))
        in
        seq (List.filter (fun (d, s) -> d <> s) (List.rev moves));
        for k = at to n - 1 do
          ignore (Vec.push nv (Vec.get v k))
        done;
        blk.Mir.insts <- nv;
        let shift = Vec.length nv - n in
        let pos_map = Array.init (n + 1) (fun k -> if k >= at then k + shift else k) in
        remap pred pos_map n
  done

(* ---------------- two-address rewriting ---------------- *)

let commutative (op : Minst.alu) =
  match op with
  | Minst.Add | Minst.And | Minst.Or | Minst.Xor | Minst.Mul -> true
  | _ -> false

(* X64 only: rewrite three-address forms into copy + two-address form,
   remapping reservation/call positions as instructions are inserted. *)
let two_address (m : Mir.t) =
  if m.Mir.target.Target.arch = Target.X64 then begin
    let nb = Array.length m.Mir.blocks in
    for b = 0 to nb - 1 do
      let blk = m.Mir.blocks.(b) in
      let old = blk.Mir.insts in
      let n = Vec.length old in
      let pos_map = Array.make (n + 1) 0 in
      let nv = Vec.create ~dummy:(Mir.M Minst.Nop) () in
      for k = 0 to n - 1 do
        pos_map.(k) <- Vec.length nv;
        (match Vec.get old k with
        | Mir.M (Minst.Alu_rrr (op, d, a, bb)) ->
            if d = a then ignore (Vec.push nv (Mir.M (Minst.Alu_rr (op, d, bb))))
            else if d = bb && commutative op then
              ignore (Vec.push nv (Mir.M (Minst.Alu_rr (op, d, a))))
            else begin
              ignore (Vec.push nv (Mir.M (Minst.Mov_rr (d, a))));
              ignore (Vec.push nv (Mir.M (Minst.Alu_rr (op, d, bb))))
            end
        | Mir.M (Minst.Alu_rri (op, d, a, imm)) ->
            if d <> a then ignore (Vec.push nv (Mir.M (Minst.Mov_rr (d, a))));
            ignore (Vec.push nv (Mir.M (Minst.Alu_ri (op, d, imm))))
        | Mir.M (Minst.Falu_rrr (op, d, a, bb)) ->
            if d <> a then ignore (Vec.push nv (Mir.M (Minst.Mov_rr (d, a))));
            ignore (Vec.push nv (Mir.M (Minst.Falu_rr (op, d, if d = a then bb else bb))))
        | Mir.M (Minst.Crc32_rrr (d, a, bb)) ->
            if d <> a then ignore (Vec.push nv (Mir.M (Minst.Mov_rr (d, a))));
            ignore (Vec.push nv (Mir.M (Minst.Crc32_rr (d, bb))))
        | Mir.M (Minst.Csel { cond; dst; a; b = bb }) ->
            if dst <> a then ignore (Vec.push nv (Mir.M (Minst.Mov_rr (dst, a))));
            ignore (Vec.push nv (Mir.M (Minst.Csel { cond; dst; a = dst; b = bb })))
        | other -> ignore (Vec.push nv other))
      done;
      pos_map.(n) <- Vec.length nv;
      blk.Mir.insts <- nv;
      (* remap recorded positions *)
      m.Mir.reservations <-
        List.map
          (fun (rb, f, t, p) ->
            if rb = b then (rb, pos_map.(f), (if t + 1 <= n then pos_map.(t + 1) - 1 else pos_map.(n) - 1), p)
            else (rb, f, t, p))
          m.Mir.reservations;
      m.Mir.call_positions <-
        List.map
          (fun (cb, pos) -> if cb = b then (cb, pos_map.(pos)) else (cb, pos))
          m.Mir.call_positions
    done
  end

(* ---------------- analyses ---------------- *)

module Mir_graph = struct
  type t = Mir.t

  let num_nodes (m : t) = Array.length m.Mir.blocks
  let entry (_ : t) = 0
  let iter_succs (m : t) b k = List.iter k m.Mir.blocks.(b).Mir.succs
end

module Mir_analysis = Qcomp_ir.Graph.Make (Mir_graph)

type liveness = { live_in : Bitset.t array; live_out : Bitset.t array }

let compute_liveness (m : Mir.t) : liveness =
  let nb = Array.length m.Mir.blocks in
  let nv = m.Mir.num_vregs in
  let live_in = Array.init nb (fun _ -> Bitset.create nv) in
  let live_out = Array.init nb (fun _ -> Bitset.create nv) in
  let vidx r = r - Mir.vreg_base in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let out = live_out.(b) in
      List.iter
        (fun s -> ignore (Bitset.union_into ~src:live_in.(s) out))
        m.Mir.blocks.(b).Mir.succs;
      let live = Bitset.copy out in
      for k = Vec.length m.Mir.blocks.(b).Mir.insts - 1 downto 0 do
        let defs, uses = Mir.defs_uses (Vec.get m.Mir.blocks.(b).Mir.insts k) in
        List.iter (fun d -> if Mir.is_vreg d then Bitset.remove live (vidx d)) defs;
        List.iter (fun u -> if Mir.is_vreg u then Bitset.add live (vidx u)) uses
      done;
      if not (Bitset.equal live live_in.(b)) then begin
        ignore (Bitset.union_into ~src:live live_in.(b));
        changed := true
      end
    done
  done;
  { live_in; live_out }

(** Block execution frequency prediction: 8^loop-depth, capped. *)
let block_freq (m : Mir.t) =
  let dt = Mir_analysis.dominators m in
  let loops = Mir_analysis.natural_loops m dt in
  Array.mapi
    (fun b _ ->
      let d = min 3 loops.Mir_analysis.depth.(b) in
      let rec pow acc k = if k = 0 then acc else pow (acc * 8) (k - 1) in
      pow 1 d)
    m.Mir.blocks

(* ---------------- "fast" register allocator ---------------- *)

(* Greedy per-block forward scan without analyses: cross-block values live
   in stack slots, registers never survive block boundaries or calls. *)
let regalloc_fast (m : Mir.t) =
  let target = m.Mir.target in
  let nv = m.Mir.num_vregs in
  let vidx r = r - Mir.vreg_base in
  let nb = Array.length m.Mir.blocks in
  (* quick def/use block scan: which vregs cross blocks or calls *)
  let def_block = Array.make nv (-1) in
  let needs_slot = Array.make nv false in
  for b = 0 to nb - 1 do
    let last_call = ref (-1) in
    Vec.iteri
      (fun pos i ->
        let defs, uses = Mir.defs_uses i in
        List.iter
          (fun u ->
            if Mir.is_vreg u then begin
              let v = vidx u in
              if def_block.(v) <> b then needs_slot.(v) <- true
              else if !last_call >= 0 && def_block.(v) = b then begin
                (* defined in this block; if defined before the last call it
                   must survive the clobber *)
                ()
              end
            end)
          uses;
        List.iter
          (fun d -> if Mir.is_vreg d then def_block.(d - Mir.vreg_base) <- b)
          defs;
        match i with Mir.Mcall _ -> last_call := pos | _ -> ())
      m.Mir.blocks.(b).Mir.insts
  done;
  (* second scan for the live-across-call case *)
  for b = 0 to nb - 1 do
    let def_pos = Array.make nv (-1) in
    let last_call = ref (-1) in
    Vec.iteri
      (fun pos i ->
        let defs, uses = Mir.defs_uses i in
        List.iter
          (fun u ->
            if Mir.is_vreg u then
              let v = vidx u in
              if def_pos.(v) >= 0 && def_pos.(v) < !last_call then needs_slot.(v) <- true)
          uses;
        List.iter (fun d -> if Mir.is_vreg d then def_pos.(vidx d) <- pos) defs;
        match i with Mir.Mcall _ -> last_call := pos | _ -> ())
      m.Mir.blocks.(b).Mir.insts
  done;
  let slot_of = Array.make nv (-1) in
  let slot v =
    if slot_of.(v) < 0 then slot_of.(v) <- Mir.new_frame_slot m;
    slot_of.(v)
  in
  (* exclude the MC scratch register *)
  let allocatable =
    Array.to_list target.Target.allocatable
    |> List.filter (fun r -> r <> target.Target.scratch)
  in
  for b = 0 to nb - 1 do
    let blk = m.Mir.blocks.(b) in
    (* reservation lookup per original position *)
    let reserved_at = Hashtbl.create 8 in
    List.iter
      (fun (rb, f, t, p) ->
        if rb = b then
          for pos = f to t do
            Hashtbl.replace reserved_at pos
              (p :: Option.value ~default:[] (Hashtbl.find_opt reserved_at pos))
          done)
      m.Mir.reservations;
    let owner = Array.make 32 (-1) in
    let reg_of = Array.make nv (-1) in
    let nv_out = Vec.create ~dummy:(Mir.M Minst.Nop) () in
    let emit i = ignore (Vec.push nv_out i) in
    let detach r =
      if owner.(r) >= 0 then begin
        reg_of.(owner.(r)) <- -1;
        owner.(r) <- -1
      end
    in
    let spill_and_detach r =
      if owner.(r) >= 0 then begin
        let v = owner.(r) in
        (* persist: the value may be used later in this block *)
        emit (Mir.Mframe_st { src = r; slot = slot v; size = 8 });
        detach r
      end
    in
    let clear_all () = for r = 0 to 31 do detach r done in
    Vec.iteri
      (fun pos inst ->
        let reserved = Option.value ~default:[] (Hashtbl.find_opt reserved_at pos) in
        let alloc ~avoid =
          let ok r = (not (List.mem r reserved)) && not (List.mem r avoid) in
          match List.find_opt (fun r -> ok r && owner.(r) < 0) allocatable with
          | Some r -> r
          | None -> (
              match List.find_opt ok allocatable with
              | Some r ->
                  spill_and_detach r;
                  r
              | None -> failwith "fast RA: no registers")
        in
        let in_regs = ref [] in
        let map_use u =
          if not (Mir.is_vreg u) then u
          else begin
            let v = vidx u in
            if reg_of.(v) >= 0 then begin
              in_regs := reg_of.(v) :: !in_regs;
              reg_of.(v)
            end
            else begin
              let r = alloc ~avoid:!in_regs in
              emit (Mir.Mframe_ld { dst = r; slot = slot v; size = 8 });
              owner.(r) <- v;
              reg_of.(v) <- r;
              in_regs := r :: !in_regs;
              r
            end
          end
        in
        let defs, uses = Mir.defs_uses inst in
        ignore uses;
        (* map uses first (emitting reloads), then allocate defs *)
        let mapped =
          Mir.map_regs
            (fun r ->
              if Mir.is_vreg r && List.mem r defs && not (List.mem r uses) then r
              else map_use r)
            inst
        in
        (* explicit preg defs evict their occupants *)
        List.iter (fun d -> if not (Mir.is_vreg d) then spill_and_detach d) defs;
        let mapped =
          Mir.map_regs
            (fun r ->
              if Mir.is_vreg r then begin
                (* remaining vregs here are pure defs *)
                let v = vidx r in
                let pr = alloc ~avoid:!in_regs in
                detach pr;
                owner.(pr) <- v;
                reg_of.(v) <- pr;
                in_regs := pr :: !in_regs;
                pr
              end
              else r)
            mapped
        in
        emit mapped;
        (* persist defs that need a home *)
        List.iter
          (fun d ->
            if Mir.is_vreg d then begin
              let v = vidx d in
              if needs_slot.(v) && reg_of.(v) >= 0 then
                emit (Mir.Mframe_st { src = reg_of.(v); slot = slot v; size = 8 })
            end)
          defs;
        match inst with
        | Mir.Mcall _ -> clear_all ()
        | Mir.M (Minst.Jmp _ | Minst.Jcc _) -> clear_all ()
        | _ -> ())
      blk.Mir.insts;
    blk.Mir.insts <- nv_out
  done

(* ---------------- "greedy" register allocator ---------------- *)

type greedy_stats = { mutable spilled : int; mutable evictions : int }

let regalloc_greedy ?(stats = { spilled = 0; evictions = 0 }) (m : Mir.t)
    (live : liveness) (freq : int array) =
  let target = m.Mir.target in
  let nv = m.Mir.num_vregs in
  let vidx r = r - Mir.vreg_base in
  let nb = Array.length m.Mir.blocks in
  let s1, s2 =
    match target.Target.arch with Target.X64 -> (10, 11) | Target.A64 -> (17, 18)
  in
  let allocatable =
    Array.to_list target.Target.allocatable
    |> List.filter (fun r -> r <> s1 && r <> s2 && r <> target.Target.scratch)
  in
  (* instruction numbering *)
  let block_start = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    block_start.(b + 1) <- block_start.(b) + Vec.length m.Mir.blocks.(b).Mir.insts
  done;
  let point b k = 2 * (block_start.(b) + k) in
  (* live intervals, spill costs and copy partners. The spill cost is the
     frequency-weighted count of defs and uses: without live-range
     splitting an interval spills whole, so that is exactly what spilling
     it costs. A copy partner is the other side of a copy between vregs. *)
  let ranges = Array.make nv [] in
  let weight = Array.make nv 0.0 in
  let partners = Array.make nv [] in
  let add_range v s e = if e > s then ranges.(v) <- (s, e) :: ranges.(v) in
  for b = 0 to nb - 1 do
    let n = Vec.length m.Mir.blocks.(b).Mir.insts in
    let bstart = point b 0 and bend = point b n in
    let range_end = Array.make nv (-1) in
    Bitset.iter (fun v -> range_end.(v) <- bend) live.live_out.(b);
    for k = n - 1 downto 0 do
      let inst = Vec.get m.Mir.blocks.(b).Mir.insts k in
      (match inst with
      | Mir.M (Minst.Mov_rr (d, s)) when Mir.is_vreg d && Mir.is_vreg s && d <> s ->
          partners.(vidx d) <- vidx s :: partners.(vidx d);
          partners.(vidx s) <- vidx d :: partners.(vidx s)
      | _ -> ());
      let defs, uses = Mir.defs_uses inst in
      let p = point b k in
      List.iter
        (fun d ->
          if Mir.is_vreg d then begin
            let v = vidx d in
            weight.(v) <- weight.(v) +. float_of_int freq.(b);
            if range_end.(v) >= 0 then begin
              add_range v (p + 1) range_end.(v);
              range_end.(v) <- -1
            end
            else add_range v (p + 1) (p + 2)
          end)
        defs;
      List.iter
        (fun u ->
          if Mir.is_vreg u then begin
            let v = vidx u in
            weight.(v) <- weight.(v) +. float_of_int freq.(b);
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
  for v = 0 to nv - 1 do
    ranges.(v) <- List.sort compare ranges.(v)
  done;
  (* per-preg interval unions; a key may carry several (end, vreg)
     segments that share the same start *)
  let occupancy : (int * int) list Btree.t array =
    Array.init 32 (fun _ -> Btree.create ())
  in
  let tree_insert preg s seg =
    let prev = Option.value ~default:[] (Btree.find occupancy.(preg) s) in
    Btree.insert occupancy.(preg) s (seg :: prev)
  in
  let conflicts preg segs =
    List.exists
      (fun (s, e) ->
        (match Btree.find_le occupancy.(preg) s with
        | Some (_, entries) when List.exists (fun (e2, _) -> e2 > s) entries -> true
        | _ -> false)
        ||
        match Btree.find_ge occupancy.(preg) (s + 1) with
        | Some (s2, _) when s2 < e -> true
        | _ -> false)
      segs
  in
  let conflicting_vregs preg segs =
    let acc = ref [] in
    Btree.iter
      (fun s2 entries ->
        List.iter
          (fun (e2, v) ->
            if List.exists (fun (s, e) -> s < e2 && s2 < e) segs then acc := v :: !acc)
          entries)
      occupancy.(preg);
    List.sort_uniq compare !acc
  in
  let assignment = Array.make nv (-1) in
  let slot_of = Array.make nv (-1) in
  let evicted_once = Array.make nv false in
  let insert_segs preg v =
    List.iter (fun (s, e) -> tree_insert preg s (e, v)) ranges.(v)
  in
  let remove_segs preg v =
    List.iter
      (fun (s, _) ->
        match Btree.find occupancy.(preg) s with
        | Some entries ->
            let entries = List.filter (fun (_, o) -> o <> v) entries in
            if entries = [] then Btree.remove occupancy.(preg) s
            else Btree.insert occupancy.(preg) s entries
        | None -> ())
      ranges.(v)
  in
  let queue =
    List.init nv (fun v -> v)
    |> List.filter (fun v -> ranges.(v) <> [])
    |> List.sort (fun a b -> compare weight.(b) weight.(a))
  in
  let free v p = not (conflicts p ranges.(v)) in
  (* a copy partner's register first: the copy becomes an identity move *)
  let hint v =
    List.find_map
      (fun o ->
        let p = assignment.(o) in
        if p >= 0 && free v p then Some p else None)
      partners.(v)
  in
  let rec assign v retry =
    match
      match hint v with Some p -> Some p | None -> List.find_opt (free v) allocatable
    with
    | Some p ->
        assignment.(v) <- p;
        insert_segs p v
    | None when not retry ->
        (* try eviction: find a preg whose conflicting intervals all weigh
           less than this one *)
        let try_preg p =
          let vs = conflicting_vregs p ranges.(v) in
          (* negative ids are fixed reservations/clobbers: not evictable *)
          if
            vs <> []
            && List.for_all
                 (fun o -> o >= 0 && weight.(o) < weight.(v) && not evicted_once.(o))
                 vs
          then Some (p, vs)
          else None
        in
        (match List.find_map try_preg allocatable with
        | Some (p, vs) ->
            List.iter
              (fun o ->
                remove_segs p o;
                assignment.(o) <- -1;
                evicted_once.(o) <- true;
                stats.evictions <- stats.evictions + 1)
              vs;
            assignment.(v) <- p;
            insert_segs p v;
            (* reassign the evicted *)
            List.iter (fun o -> assign o true) vs
        | None ->
            stats.spilled <- stats.spilled + 1;
            slot_of.(v) <- Mir.new_frame_slot m)
    | None ->
        stats.spilled <- stats.spilled + 1;
        slot_of.(v) <- Mir.new_frame_slot m
  in
  (* pre-occupy reservations and call clobbers *)
  List.iter
    (fun (b, f, t, p) -> tree_insert p (point b f) (point b t + 2, -1))
    m.Mir.reservations;
  let caller_saved =
    List.filter (fun r -> not (Target.is_callee_saved target r)) allocatable
  in
  List.iter
    (fun (b, pos) ->
      List.iter (fun p -> tree_insert p (point b pos) (point b pos + 2, -1)) caller_saved)
    m.Mir.call_positions;
  List.iter (fun v -> assign v false) queue;
  (* rewrite: spilled vregs through the scratch registers s1 and s2. A copy
     into or out of a spilled vreg becomes its one frame store or load
     (LLVM's foldMemoryOperand on COPY). s1 keeps the spilled value it last
     loaded or stored, so a later use in the block reads it there, until
     an instruction writes s1, a call clobbers it, or the block ends. *)
  let slot r = if Mir.is_vreg r then slot_of.(vidx r) else -1 in
  let reg r = if Mir.is_vreg r then assignment.(vidx r) else r in
  for b = 0 to nb - 1 do
    let blk = m.Mir.blocks.(b) in
    let nv_out = Vec.create ~dummy:(Mir.M Minst.Nop) () in
    let emit i = ignore (Vec.push nv_out i) in
    (* the vreg whose spilled value s1 holds, or -1 *)
    let in_s1 = ref (-1) in
    let load dst r = emit (Mir.Mframe_ld { dst; slot = slot r; size = 8 }) in
    let store src r =
      emit (Mir.Mframe_st { src; slot = slot r; size = 8 });
      if src = s1 then in_s1 := r else if !in_s1 = r then in_s1 := -1
    in
    Vec.iter
      (fun inst ->
        match inst with
        | Mir.M (Minst.Mov_rr (d, s)) when slot d >= 0 || slot s >= 0 ->
            (* the register the copied value is in: s's own, s1 when it
               holds s, else a reload (into d's register when d has one) *)
            let src =
              if slot s < 0 then reg s
              else if !in_s1 = s then s1
              else begin
                let dst = if slot d >= 0 then s1 else reg d in
                load dst s;
                if dst = s1 then in_s1 := s;
                dst
              end
            in
            if slot d >= 0 then store src d
            else if src <> reg d then emit (Mir.M (Minst.Mov_rr (reg d, src)))
        | _ ->
            let defs, uses = Mir.defs_uses inst in
            (* spilled uses: the one s1 holds reads it there, the others
               are reloaded into a free scratch *)
            let spill_map = if List.mem !in_s1 uses then [ (!in_s1, s1) ] else [] in
            let spill_map =
              List.fold_left
                (fun acc u ->
                  if slot u < 0 || List.mem_assoc u acc then acc
                  else
                    let taken s = List.exists (fun (_, s') -> s' = s) acc in
                    let s =
                      if not (taken s1) then s1
                      else if not (taken s2) then s2
                      else failwith "greedy RA: out of spill scratches"
                    in
                    load s u;
                    if s = s1 then in_s1 := u;
                    (u, s) :: acc)
                spill_map uses
            in
            (* a spilled def that is no use lands in s1 *)
            let map r =
              match List.assoc_opt r spill_map with
              | Some s -> s
              | None -> if slot r >= 0 then s1 else reg r
            in
            let mapped = Mir.map_regs map inst in
            emit mapped;
            (match mapped with
            | Mir.Mcall _ | Mir.M (Minst.Call_ind _ | Minst.Call_rel _) -> in_s1 := -1
            | _ -> if List.exists (fun d -> map d = s1) defs then in_s1 := -1);
            List.iter (fun d -> if slot d >= 0 then store (map d) d) defs)
      blk.Mir.insts;
    blk.Mir.insts <- nv_out
  done;
  stats

(* ---------------- post-RA cleanup ---------------- *)

(* Register allocation leaves identity copies behind wherever a coalesced
   value or a phi operand landed in its target register already; both real
   allocators delete them in a final rewrite. Plain moves set no flags, so
   dropping them is always sound. *)
let remove_identity_moves (m : Mir.t) =
  Array.iter
    (fun (blk : Mir.block) ->
      let out = Vec.create ~dummy:(Mir.M Minst.Nop) () in
      Vec.iter
        (fun i ->
          match i with
          | Mir.M (Minst.Mov_rr (d, s)) when d = s -> ()
          | _ -> ignore (Vec.push out i))
        blk.Mir.insts;
      blk.Mir.insts <- out)
    m.Mir.blocks

(* ---------------- prologue/epilogue insertion ---------------- *)

(* Finalizes the stack frame and rewrites every frame reference — a
   comparably expensive pass in cheap builds (Sec. V-B5). *)
let prologue_epilogue (m : Mir.t) =
  let target = m.Mir.target in
  let sp = target.Target.sp in
  (* clobbered callee-saved registers *)
  let clobbered = Hashtbl.create 8 in
  let has_call = ref false in
  Array.iter
    (fun (blk : Mir.block) ->
      Vec.iter
        (fun i ->
          (match i with Mir.Mcall _ -> has_call := true | _ -> ());
          let defs, _ = Mir.defs_uses i in
          List.iter
            (fun d ->
              if (not (Mir.is_vreg d)) && Target.is_callee_saved target d then
                Hashtbl.replace clobbered d ())
            defs)
        blk.Mir.insts)
    m.Mir.blocks;
  let saved =
    (Hashtbl.fold (fun r () acc -> r :: acc) clobbered [] |> List.sort compare)
    @ (if !has_call && target.Target.arch = Target.A64 then [ Target.lr ] else [])
  in
  let spill_area = 8 * m.Mir.num_frame_slots in
  let frame = (spill_area + (8 * List.length saved) + 15) land lnot 15 in
  let save_off k = spill_area + (8 * k) in
  (* rewrite all blocks *)
  Array.iteri
    (fun bi (blk : Mir.block) ->
      let nv_out = Vec.create ~dummy:(Mir.M Minst.Nop) () in
      if bi = 0 && frame > 0 then begin
        ignore
          (Vec.push nv_out (Mir.M (Minst.Alu_rri (Minst.Sub, sp, sp, Int64.of_int frame))));
        List.iteri
          (fun k r ->
            ignore
              (Vec.push nv_out (Mir.M (Minst.St { src = r; base = sp; off = save_off k; size = 8 }))))
          saved
      end;
      Vec.iter
        (fun i ->
          match i with
          | Mir.Mframe_ld { dst; slot; size } ->
              ignore
                (Vec.push nv_out
                   (Mir.M (Minst.Ld { dst; base = sp; off = 8 * slot; size; sext = false })))
          | Mir.Mframe_st { src; slot; size } ->
              ignore
                (Vec.push nv_out (Mir.M (Minst.St { src; base = sp; off = 8 * slot; size })))
          | Mir.M Minst.Ret ->
              List.iteri
                (fun k r ->
                  ignore
                    (Vec.push nv_out
                       (Mir.M (Minst.Ld { dst = r; base = sp; off = save_off k; size = 8; sext = false }))))
                saved;
              if frame > 0 then
                ignore
                  (Vec.push nv_out (Mir.M (Minst.Alu_rri (Minst.Add, sp, sp, Int64.of_int frame))));
              ignore (Vec.push nv_out (Mir.M Minst.Ret))
          | other -> ignore (Vec.push nv_out other))
        blk.Mir.insts;
      blk.Mir.insts <- nv_out)
    m.Mir.blocks;
  frame

(* ---------------- branch folding ---------------- *)

(* The -O2 pipelines' BranchFolder, reduced to its two commonest rewrites:
   a block whose last instruction jumps to the next non-empty block laid
   out falls through to it instead, and a block that ends
   [jcc c, <next>; jmp t] ends [jcc !c, t]. *)
let drop_fallthrough_jumps (m : Mir.t) =
  let blocks = m.Mir.blocks in
  let falls_to b t =
    t > b
    && (let rec empty k = k >= t || (Vec.is_empty blocks.(k).Mir.insts && empty (k + 1)) in
        empty (b + 1))
  in
  Array.iteri
    (fun b (blk : Mir.block) ->
      let v = blk.Mir.insts in
      let n = Vec.length v in
      if n > 0 then
        match Vec.get v (n - 1) with
        | Mir.M (Minst.Jmp t) when falls_to b t -> Vec.truncate v (n - 1)
        | Mir.M (Minst.Jmp t) when n > 1 -> (
            match Vec.get v (n - 2) with
            | Mir.M (Minst.Jcc (c, next)) when falls_to b next ->
                Vec.set v (n - 2) (Mir.M (Minst.Jcc (Minst.cond_negate c, t)));
                Vec.truncate v (n - 1)
            | _ -> ())
        | _ -> ())
    blocks
