(** DirectEmit code generation: one pass over the blocks in the analysis
    layout, translating each Umbra IR instruction directly to x86-64
    machine code with on-the-fly greedy register allocation (Sec. VII).

    Location discipline: a value lives in a register from its definition
    to its last use, which the analysis' liveness intervals place, and its
    stack home is written only when needed: when its register is taken
    while it is still live (eviction, a fixed-register instruction, a
    call, or an edge into a block that expects it at home), or once at the
    definition for a value live across a call inside a loop that does not
    define it, which would otherwise be written on every iteration. Every
    live value is in a register or in its up-to-date home.

    Registers survive block edges. The first edge emitted into a block
    fixes the block's entry map: the live-in values (for a loop header,
    those the loop reads) stay in the registers they occupy, and each phi
    takes its incoming value's register or a free one. Every later edge,
    loop back edges included, moves or reloads into that map with one
    parallel move, which also writes the homes of phis and live-ins the
    map keeps in memory. Eviction prefers dead values, then values whose
    home is current, then values defined outside the current loop (the
    loop-aware spill heuristic the paper mentions).

    Control flow: an integer compare or null test whose only use is the
    branch right after it sets the flags at its own position, where its
    operands are live, and the branch jumps on them; the edge into
    the block laid out next falls through; an edge whose moves cannot
    fall through runs in an out-of-line stub after the epilogue.

    Intrinsics: calls to [umbra_strEq] and [umbra_strHash], recognised by
    extern name through the module's extern table, compile inline for
    short strings from the two words of each SSO struct (see {!Sso});
    the runtime call of a 128-bit multiply that does not fit its 64-bit
    fast path is the third fast path of this kind. What a fast path does
    not cover (long strings, wide products) calls the runtime from an
    out-of-line stub that saves and restores every live register
    ([runtime_stub]), so neither path clobbers a register and the
    analysis does not count these calls as calls. DWARF CFI is written in
    parallel, synchronous-only. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(** A move source or destination: a register, or a frame offset from sp. *)
type loc = R of int | M of int

type st = {
  asm : Asm.t;
  f : Func.t;
  target : Target.t;
  an : Analysis.t;
  intrinsics : Analysis.intrinsic option array;
      (** extern id -> the intrinsic its calls compile to *)
  extern_addr : int -> int64;
  rt_addr : string -> int64;  (** runtime helpers referenced by name *)
  (* register file state *)
  reg_owner : int array;  (** reg -> value id or -1 *)
  reg_lane : int array;  (** reg -> 0 (lo) / 1 (hi) *)
  reg_of : int array;  (** value -> reg holding lo lane, or -1 *)
  reg2_of : int array;  (** value -> reg holding hi lane, or -1 *)
  slot_of : int array;  (** value -> frame offset, or -1 *)
  clean : bool array;
      (** value -> its home holds the lanes it has in registers (lanes not
          in a register are always in the home) *)
  entry_map : (int * int * int * bool) list array;
      (** block -> (value, lane, reg, clean) on entry, fixed by the first
          edge emitted into the block *)
  entry_set : bool array;
  reg_loc : loc array;  (** reg -> [R reg] *)
  taken : bool array;  (** scratch: registers of an entry map being fixed *)
  mark : int array;  (** scratch: value -> stamp, see [new_stamp] *)
  mutable stamp : int;
  mutable frame : int;
  mutable cur_block : int;
  mutable cur_idx : int;  (** layout index of [cur_block] *)
  mutable cur_pos : int;
  mutable fused : int;  (** compare whose flags feed the next branch, -1 *)
  block_labels : int array;
  mutable epilogue : int;  (** label *)
  mutable trap_label : int;  (** lazily created overflow-trap label, -1 *)
  mutable save_area : int;  (** frame offset of one slot per register, -1 *)
  mutable stubs : (int * Minst.t list * int) list;
      (** out-of-line code: (label, instructions, label it jumps to) *)
  mutable param_holes : (int * int * bool) list;
      (** (imm byte offset, parameter index, is-high-lane): wide [Mov_ri]
          immediates left as holes, turned into [Param]/[Param_hi]
          relocations by the artifact assembler *)
}

let rax = 0
let rdx = 2

let create asm f target an ~intrinsics extern_addr rt_addr =
  let nv = Func.num_insts f in
  let nb = Func.num_blocks f in
  {
    asm;
    f;
    target;
    an;
    intrinsics;
    extern_addr;
    rt_addr;
    reg_owner = Array.make target.Target.num_regs (-1);
    reg_lane = Array.make target.Target.num_regs 0;
    reg_of = Array.make nv (-1);
    reg2_of = Array.make nv (-1);
    slot_of = Array.make nv (-1);
    clean = Array.make nv false;
    entry_map = Array.make nb [];
    entry_set = Array.make nb false;
    reg_loc = Array.init target.Target.num_regs (fun r -> R r);
    taken = Array.make target.Target.num_regs false;
    mark = Array.make nv 0;
    stamp = 0;
    frame = 0;
    cur_block = 0;
    cur_idx = 0;
    cur_pos = 0;
    fused = -1;
    block_labels = Array.init nb (fun _ -> Asm.new_label asm);
    epilogue = Asm.new_label asm;
    trap_label = -1;
    save_area = -1;
    stubs = [];
    param_holes = [];
  }

let emit st i = Asm.emit st.asm i
let sp st = st.target.Target.sp
let lanes st v = if Func.ty st.f v = Ty.I128 then 2 else 1

let slot st v =
  if st.slot_of.(v) >= 0 then st.slot_of.(v)
  else begin
    let size = if Func.ty st.f v = Ty.I128 then 16 else 8 in
    let off = st.frame in
    st.frame <- st.frame + size;
    st.slot_of.(v) <- off;
    off
  end

let save_area st =
  if st.save_area < 0 then begin
    st.save_area <- st.frame;
    st.frame <- st.frame + (8 * Array.length st.reg_owner)
  end;
  st.save_area

(* ---------------- liveness ---------------- *)

(* [v] is still read by the current instruction or a later one *)
let live_at st v =
  let h = st.an.Analysis.hi.(v) in
  h > st.cur_idx || (h = st.cur_idx && st.an.Analysis.last_use.(v) >= st.cur_pos)

(* [v] is read after the current instruction *)
let live_after st v =
  let h = st.an.Analysis.hi.(v) in
  h > st.cur_idx || (h = st.cur_idx && st.an.Analysis.last_use.(v) > st.cur_pos)

(* [v] is live into the block at layout index [k] (its phis excluded) *)
let live_in st v k = st.an.Analysis.lo.(v) < k && k <= st.an.Analysis.hi.(v)

let next_block st =
  let k = st.cur_idx + 1 in
  if k < Array.length st.an.Analysis.order then st.an.Analysis.order.(k) else -1

(* ---------------- register file ---------------- *)

let detach st r =
  let v = st.reg_owner.(r) in
  if v >= 0 then begin
    if st.reg_lane.(r) = 0 then st.reg_of.(v) <- -1 else st.reg2_of.(v) <- -1;
    st.reg_owner.(r) <- -1
  end

let attach st r v lane =
  detach st r;
  st.reg_owner.(r) <- v;
  st.reg_lane.(r) <- lane;
  if lane = 0 then st.reg_of.(v) <- r else st.reg2_of.(v) <- r

(** Drop all register ownership (block entry, call clobbers); the caller
    has written home every value still live. *)
let clear_regs st =
  for r = 0 to Array.length st.reg_owner - 1 do
    detach st r
  done

let drop st v =
  if st.reg_of.(v) >= 0 then detach st st.reg_of.(v);
  if st.reg2_of.(v) >= 0 then detach st st.reg2_of.(v)

(* Write [v]'s register lanes to its home unless the home holds them. *)
let write_home st v =
  if not st.clean.(v) then begin
    let off = slot st v in
    if st.reg_of.(v) >= 0 then
      emit st (Minst.St { src = st.reg_of.(v); base = sp st; off; size = 8 });
    if st.reg2_of.(v) >= 0 then
      emit st (Minst.St { src = st.reg2_of.(v); base = sp st; off = off + 8; size = 8 });
    st.clean.(v) <- true
  end

(** Write [v] home before its register is taken, if it is still needed. *)
let spill st v = if live_at st v then write_home st v

(** Write home every register value read after the current instruction:
    no register survives it. *)
let spill_live_after st =
  for r = 0 to Array.length st.reg_owner - 1 do
    let v = st.reg_owner.(r) in
    if v >= 0 && live_after st v then write_home st v
  done

(** Pick a register to allocate, evicting if necessary. [avoid] registers
    are never picked. *)
let alloc_reg ?(avoid = []) st =
  let ok r = not (List.mem r avoid) in
  let alloc = st.target.Target.allocatable in
  (* free register first *)
  let free =
    Array.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> if ok r && st.reg_owner.(r) < 0 then Some r else None)
      None alloc
  in
  match free with
  | Some r -> r
  | None ->
      (* Eviction: prefer a dead owner, then one whose home is current;
         among those, values defined outside the current loop, then values
         this block does not read again. *)
      let cur_depth = st.an.Analysis.depth.(st.cur_block) in
      let score r =
        let v = st.reg_owner.(r) in
        if not (live_at st v) then -1
        else
          let def_depth =
            let db = st.an.Analysis.order.(st.an.Analysis.lo.(v)) in
            st.an.Analysis.depth.(db)
          in
          let reread =
            st.an.Analysis.hi.(v) = st.cur_idx && st.an.Analysis.last_use.(v) < max_int
          in
          (if st.clean.(v) then 0 else 1000)
          + (if def_depth < cur_depth then 0 else 100)
          + if reread then 50 else 0
      in
      let best =
        Array.fold_left
          (fun acc r ->
            if not (ok r) || st.reg_owner.(r) < 0 then acc
            else
              match acc with
              | None -> Some r
              | Some b -> if score r < score b then Some r else acc)
          None alloc
      in
      let r = match best with Some r -> r | None -> unsupported "register pressure" in
      spill st st.reg_owner.(r);
      detach st r;
      r

(* Load lane [lane] of [v] from its home into [r]. *)
let load_lane st v lane r =
  let off = st.slot_of.(v) in
  if off < 0 then
    unsupported "value %%%d (lane %d) has no location at ^%d:%d" v lane st.cur_block
      st.cur_pos;
  (* with no lane in a register, the home holds all of [v] *)
  if st.reg_of.(v) < 0 && st.reg2_of.(v) < 0 then st.clean.(v) <- true;
  emit st (Minst.Ld { dst = r; base = sp st; off = off + (8 * lane); size = 8; sext = false });
  attach st r v lane

(** Bring lane [lane] of value [v] into a register. *)
let use_lane ?(avoid = []) st v lane =
  let r0 = if lane = 0 then st.reg_of.(v) else st.reg2_of.(v) in
  if r0 >= 0 && not (List.mem r0 avoid) then r0
  else if r0 >= 0 then begin
    (* in an avoided register: copy out *)
    let r = alloc_reg ~avoid st in
    emit st (Minst.Mov_rr (r, r0));
    detach st r0;
    attach st r v lane;
    r
  end
  else begin
    let r = alloc_reg ~avoid st in
    load_lane st v lane r;
    r
  end

let use ?avoid st v = use_lane ?avoid st v 0
let use_hi ?avoid st v = use_lane ?avoid st v 1

(** Allocate result register(s) for value [v]. *)
let def ?(avoid = []) st v =
  let r = alloc_reg ~avoid st in
  attach st r v 0;
  r

let def_hi ?(avoid = []) st v =
  let r = alloc_reg ~avoid st in
  attach st r v 1;
  r

(** After computing a definition: free it if nothing reads it, write its
    home now if a call inside a loop would otherwise write it on every
    iteration. *)
let finish_def st v =
  st.clean.(v) <- false;
  if st.an.Analysis.uses.(v) = 0 then drop st v
  else if st.an.Analysis.home_at_def.(v) then write_home st v

(** Free registers of operands whose last use has passed. *)
let kill_dead_operand st v =
  if
    st.an.Analysis.hi.(v) = st.cur_idx
    && st.an.Analysis.last_use.(v) <= st.cur_pos
  then drop st v

(** Free a specific register. A still-needed owner moves to a free
    register outside [avoid], or, when there is none, goes home. *)
let evacuate ?(avoid = []) st r =
  let v = st.reg_owner.(r) in
  if v >= 0 then begin
    let free r' = r' <> r && st.reg_owner.(r') < 0 && not (List.mem r' avoid) in
    match Array.find_opt free st.target.Target.allocatable with
    | Some r' when live_at st v ->
        let lane = st.reg_lane.(r) in
        emit st (Minst.Mov_rr (r', r));
        detach st r;
        attach st r' v lane
    | _ ->
        spill st v;
        detach st r
  end

(** Force [v]'s lane into the specific register [r]. *)
let force_reg st v lane r =
  let cur = if lane = 0 then st.reg_of.(v) else st.reg2_of.(v) in
  if cur <> r then begin
    evacuate st r;
    if cur >= 0 then begin
      emit st (Minst.Mov_rr (r, cur));
      detach st cur;
      attach st r v lane
    end
    else load_lane st v lane r
  end

(* ---------------- edges ---------------- *)

(* Where lane [lane] of [v] is now: a register, its home, or [nowhere]. *)
let nowhere = M (-1)

let src_loc st v lane =
  let r = if lane = 0 then st.reg_of.(v) else st.reg2_of.(v) in
  if r >= 0 then st.reg_loc.(r)
  else if st.slot_of.(v) >= 0 then M (st.slot_of.(v) + (8 * lane))
  else nowhere

(** Emit [moves] (source, destination) through [out] as if all at once;
    destinations are distinct, and a move onto its own source is dropped.
    A cycle is broken through the scratch register, a memory-to-memory
    move goes through the secondary one. *)
let parallel_move st out moves =
  let sc = st.target.Target.scratch and sc2 = st.target.Target.scratch2 in
  let sp = sp st in
  let mv src dst =
    match (src, dst) with
    | R a, R b -> out (Minst.Mov_rr (b, a))
    | M o, R b -> out (Minst.Ld { dst = b; base = sp; off = o; size = 8; sext = false })
    | R a, M o -> out (Minst.St { src = a; base = sp; off = o; size = 8 })
    | M a, M b ->
        out (Minst.Ld { dst = sc2; base = sp; off = a; size = 8; sext = false });
        out (Minst.St { src = sc2; base = sp; off = b; size = 8 })
  in
  match moves with
  | [] -> ()
  | [ (s, d) ] -> if s <> d then mv s d
  | moves ->
      let moves = List.filter (fun (s, d) -> s <> d) moves in
      let pending = ref moves in
      while !pending <> [] do
        let blocked (_, d) = List.exists (fun (s, _) -> s = d) !pending in
        match List.find_opt (fun m -> not (blocked m)) !pending with
        | Some ((s, d) as m) ->
            mv s d;
            pending := List.filter (fun m' -> m' != m) !pending
        | None ->
            (* every destination is still a source: park one in scratch *)
            let _, d = List.hd !pending in
            mv d (R sc);
            pending := List.map (fun (s, d') -> ((if s = d then R sc else s), d')) !pending
      done

(* A phi of the block at layout index [k]. *)
let is_phi_of st k v = Func.op st.f v = Op.Phi && st.an.Analysis.lo.(v) = k

(* A fresh stamp for [st.mark]. A value is marked with it when its cell
   holds the stamp in all but the low three bits, which carry flags. *)
let new_stamp st =
  st.stamp <- st.stamp + 1;
  st.stamp lsl 3

let marked st v stamp = st.mark.(v) land lnot 7 = stamp

(* Fix [b]'s entry map from the current state (the first edge into [b]):
   live-in values stay in their registers, and each 64-bit phi takes its
   incoming value's register when that is free, else a free one, else its
   home. Into a loop header, only values the loop uses stay; when the loop
   calls out, which clears every register, only those its header (and the
   body block after it) read, since the back edge would reload the others
   on every iteration. *)
let fix_entry_map st b =
  let an = st.an in
  let k = an.Analysis.index.(b) in
  let loop_end = an.Analysis.loop_end.(b) in
  let calls = loop_end >= 0 && an.Analysis.loop_calls.(b) in
  let reads = if calls then new_stamp st else 0 in
  let mark_reads b =
    Vec.iter
      (fun i ->
        if Func.op st.f i <> Op.Phi then Func.iter_operands st.f i (fun v -> st.mark.(v) <- reads))
      (Func.block_insts st.f b)
  in
  if calls then begin
    mark_reads b;
    if k < loop_end && an.Analysis.preds.(an.Analysis.order.(k + 1)) = 1 then
      mark_reads an.Analysis.order.(k + 1)
  end;
  let taken = st.taken in
  Array.fill taken 0 (Array.length taken) false;
  let map = ref [] in
  let hold v lane r c =
    taken.(r) <- true;
    map := (v, lane, r, c) :: !map
  in
  for r = 0 to Array.length st.reg_owner - 1 do
    let v = st.reg_owner.(r) in
    if
      v >= 0 && live_in st v k
      && (loop_end < 0
         || if calls then marked st v reads else an.Analysis.ext_end.(v) >= loop_end)
    then hold v st.reg_lane.(r) r st.clean.(v)
  done;
  let live_phi p = an.Analysis.uses.(p) > 0 && Func.ty st.f p <> Ty.I128 in
  (* phis whose incoming value's register is free take it; the rest a
     free register if any *)
  let rest =
    List.filter
      (fun p ->
        live_phi p
        &&
        let w = Func.phi_incoming_from st.f p st.cur_block in
        let r = if w >= 0 then st.reg_of.(w) else -1 in
        if r >= 0 && not taken.(r) then (hold p 0 r false; false) else true)
      an.Analysis.phis.(b)
  in
  List.iter
    (fun p ->
      match Array.find_opt (fun r -> not taken.(r)) st.target.Target.allocatable with
      | Some r -> hold p 0 r false
      | None -> ())
    rest;
  st.entry_map.(b) <- !map;
  st.entry_set.(b) <- true

(** The moves on the edge from the current block into [b]: write home
    every dirty live-in lane that [b]'s map does not hold in a register
    (or holds as clean), load or move every lane the map holds, and write
    the homes of the phis it does not hold. *)
let rec edge_moves st b =
  if st.entry_set.(b) then conform st b
  else begin
    fix_entry_map st b;
    (* outside loop headers the new map holds every live-in register as it
       is, so only phis can need moves *)
    if st.an.Analysis.loop_end.(b) < 0 && st.an.Analysis.phis.(b) = [] then []
    else conform st b
  end

and conform st b =
  let k = st.an.Analysis.index.(b) in
  let map = st.entry_map.(b) in
  (* mark the map: a value's cell holds the stamp plus one bit per held
     lane and one for "held clean" *)
  let stamp = new_stamp st in
  List.iter
    (fun (v, lane, _, c) ->
      let m = if marked st v stamp then st.mark.(v) else stamp in
      st.mark.(v) <- m lor (1 lsl lane) lor if c then 4 else 0)
    map;
  let moves = ref [] in
  let add src dst = if src != nowhere && src <> dst then moves := (src, dst) :: !moves in
  let phi_src p lane =
    let w = Func.phi_incoming_from st.f p st.cur_block in
    if w < 0 then nowhere else src_loc st w lane
  in
  for r = 0 to Array.length st.reg_owner - 1 do
    let v = st.reg_owner.(r) in
    if v >= 0 && (not st.clean.(v)) && live_in st v k then begin
      let lane = st.reg_lane.(r) in
      let m = st.mark.(v) in
      if (not (marked st v stamp)) || m land (1 lsl lane) = 0 || m land 4 <> 0 then
        add st.reg_loc.(r) (M (slot st v + (8 * lane)))
    end
  done;
  List.iter
    (fun (v, lane, r, _) ->
      add (if is_phi_of st k v then phi_src v lane else src_loc st v lane) st.reg_loc.(r))
    map;
  List.iter
    (fun p ->
      if st.an.Analysis.uses.(p) > 0 && not (marked st p stamp) then
        for lane = 0 to lanes st p - 1 do
          add (phi_src p lane) (M (slot st p + (8 * lane)))
        done)
    st.an.Analysis.phis.(b);
  !moves

(** Start block [b] at layout index [k] in its entry map. *)
let enter_block st k b =
  if not st.entry_set.(b) then unsupported "block ^%d laid out before its predecessors" b;
  st.cur_block <- b;
  st.cur_idx <- k;
  clear_regs st;
  List.iter
    (fun (v, lane, r, c) ->
      attach st r v lane;
      st.clean.(v) <- c)
    st.entry_map.(b)

(** The entry block's map: the argument registers as they stand. *)
let fix_entry st =
  let map = ref [] in
  Array.iteri
    (fun r v -> if v >= 0 then map := (v, st.reg_lane.(r), r, st.clean.(v)) :: !map)
    st.reg_owner;
  st.entry_map.(Func.entry_block) <- !map;
  st.entry_set.(Func.entry_block) <- true

(* Emit [moves] into an instruction list for out-of-line code. *)
let moves_code st moves =
  let code = ref [] in
  parallel_move st (fun i -> code := i :: !code) moves;
  List.rev !code

(** Out-of-line stubs, after the function's epilogue. *)
let emit_stubs st =
  List.iter
    (fun (label, code, target) ->
      Asm.bind st.asm label;
      List.iter (emit st) code;
      Asm.jmp st.asm target)
    (List.rev st.stubs)

(** An out-of-line runtime call for what a fast path does not cover,
    entered at [slow] and returning to [done_]: save every register whose
    value is read after the current instruction, except the [results] the
    call defines; move the [args] registers into the argument registers;
    call [name]; move the return registers into [results]; restore. Both
    paths meet with the same register state. *)
let runtime_stub st ~slow ~done_ ~args ~results name =
  let code = ref [] in
  let out i = code := i :: !code in
  let save = save_area st in
  let saved = ref [] in
  Array.iteri
    (fun r v ->
      if v >= 0 && live_after st v && not (List.mem r results) then begin
        saved := r :: !saved;
        out (Minst.St { src = r; base = sp st; off = save + (8 * r); size = 8 })
      end)
    st.reg_owner;
  let target = st.target in
  parallel_move st out (List.mapi (fun k r -> (R r, R target.Target.arg_regs.(k))) args);
  let sc = target.Target.scratch in
  out (Minst.Mov_ri (sc, st.rt_addr name));
  out (Minst.Call_ind sc);
  parallel_move st out (List.mapi (fun k r -> (R target.Target.ret_regs.(k), R r)) results);
  List.iter
    (fun r -> out (Minst.Ld { dst = r; base = sp st; off = save + (8 * r); size = 8; sext = false }))
    !saved;
  st.stubs <- (slow, List.rev !code, done_) :: st.stubs

(* ---------------- helpers ---------------- *)

let trap st =
  if st.trap_label < 0 then st.trap_label <- Asm.new_label st.asm;
  st.trap_label

let cmp_to_cond (c : Op.cmp) : Minst.cond =
  match c with
  | Op.Eq -> Minst.Eq
  | Op.Ne -> Minst.Ne
  | Op.Slt -> Minst.Slt
  | Op.Sle -> Minst.Sle
  | Op.Sgt -> Minst.Sgt
  | Op.Sge -> Minst.Sge
  | Op.Ult -> Minst.Ult
  | Op.Ule -> Minst.Ule
  | Op.Ugt -> Minst.Ugt
  | Op.Uge -> Minst.Uge

let canon_bits (ty : Ty.t) =
  match ty with Ty.I8 -> 8 | Ty.I16 -> 16 | Ty.I32 -> 32 | _ -> 0

(** Re-sign-extend a narrow result to keep the canonical representation. *)
let canonicalize st ty r =
  let bits = canon_bits ty in
  if bits <> 0 then emit st (Minst.Ext { dst = r; src = r; bits; signed = true })

let alu_of_op (op : Op.t) : Minst.alu =
  match op with
  | Op.Add | Op.Saddtrap -> Minst.Add
  | Op.Sub | Op.Ssubtrap -> Minst.Sub
  | Op.Mul | Op.Smultrap -> Minst.Mul
  | Op.And -> Minst.And
  | Op.Or -> Minst.Or
  | Op.Xor -> Minst.Xor
  | Op.Shl -> Minst.Shl
  | Op.Lshr -> Minst.Shr
  | Op.Ashr -> Minst.Sar
  | Op.Rotr -> Minst.Ror
  | _ -> unsupported "not an ALU op"

(* A compare whose only use is the branch right after it: it sets the
   flags at its own position, where its operands are still live, and
   materialises nothing. *)
let fusible st i =
  st.an.Analysis.uses.(i) = 1
  &&
  let insts = Func.block_insts st.f st.cur_block in
  st.cur_pos + 1 < Vec.length insts
  &&
  let j = Vec.get insts (st.cur_pos + 1) in
  Func.op st.f j = Op.Condbr && Func.x st.f j = i

let negate : Minst.cond -> Minst.cond = function
  | Minst.Eq -> Minst.Ne
  | Minst.Ne -> Minst.Eq
  | Minst.Slt -> Minst.Sge
  | Minst.Sge -> Minst.Slt
  | Minst.Sle -> Minst.Sgt
  | Minst.Sgt -> Minst.Sle
  | Minst.Ult -> Minst.Uge
  | Minst.Uge -> Minst.Ult
  | Minst.Ule -> Minst.Ugt
  | Minst.Ugt -> Minst.Ule
  | Minst.Ov -> Minst.Noov
  | Minst.Noov -> Minst.Ov

(** Constant-value view of an operand (for shift immediates etc.). *)
let const_of st v =
  match Func.op st.f v with
  | Op.Const -> Some (Func.imm st.f v)
  | Op.Sext | Op.Zext -> (
      match Func.op st.f (Func.x st.f v) with
      | Op.Const -> Some (Func.imm st.f (Func.x st.f v))
      | _ -> None)
  | _ -> None

(* ---------------- instruction emission ---------------- *)

let rec emit_inst st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  match Func.op f i with
  | Op.Nop | Op.Arg | Op.Phi -> ()
  | Op.Const ->
      let d = def st i in
      emit st (Minst.Mov_ri (d, Func.imm f i));
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        emit st (Minst.Mov_ri (dhi, Int64.shift_right (Func.imm f i) 63))
      end;
      finish_def st i
  | Op.Const128 ->
      let hi, lo = Func.const128_value f i in
      let dlo = def st i in
      emit st (Minst.Mov_ri (dlo, lo));
      let dhi = def_hi ~avoid:[ dlo ] st i in
      emit st (Minst.Mov_ri (dhi, hi));
      finish_def st i
  | Op.Param ->
      (* like Const, but the immediate stays a forced-wide hole the linker
         patches per bind; zero keeps unbound text deterministic *)
      let idx = Int64.to_int (Func.imm f i) in
      let d = def st i in
      st.param_holes <- (Asm.emit_mov_ri64 st.asm d 0L, idx, false) :: st.param_holes;
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        st.param_holes <-
          (Asm.emit_mov_ri64 st.asm dhi 0L, idx, true) :: st.param_holes
      end;
      finish_def st i
  | Op.Isnull | Op.Isnotnull ->
      let rx = use st x in
      kill_dead_operand st x;
      emit st (Minst.Cmp_ri (rx, 0L));
      if fusible st i then st.fused <- i
      else begin
        let d = def st i in
        emit st
          (Minst.Setcc ((if Func.op f i = Op.Isnull then Minst.Eq else Minst.Ne), d));
        finish_def st i
      end
  | Op.Add | Op.Sub | Op.Mul | Op.And | Op.Or | Op.Xor ->
      if ty = Ty.I128 then emit_i128_bin st i
      else begin
        let rx = use st x in
        let ry = use ~avoid:[ rx ] st y in
        kill_dead_operand st x;
        kill_dead_operand st y;
        let d = def ~avoid:[ rx; ry ] st i in
        emit st (Minst.Mov_rr (d, rx));
        emit st (Minst.Alu_rr (alu_of_op (Func.op f i), d, ry));
        canonicalize st ty d;
        finish_def st i
      end
  | Op.Saddtrap | Op.Ssubtrap -> emit_addsub_trap st i
  | Op.Smultrap -> emit_mul_trap st i
  | Op.Shl | Op.Lshr | Op.Ashr | Op.Rotr ->
      if ty = Ty.I128 then emit_i128_shift st i
      else begin
        let rx = use st x in
        kill_dead_operand st x;
        let d =
          match const_of st y with
          | Some amt ->
              let d = def ~avoid:[ rx ] st i in
              emit st (Minst.Mov_rr (d, rx));
              emit st (Minst.Alu_ri (alu_of_op (Func.op f i), d, amt));
              d
          | None ->
              let ry = use ~avoid:[ rx ] st y in
              kill_dead_operand st y;
              let d = def ~avoid:[ rx; ry ] st i in
              emit st (Minst.Mov_rr (d, rx));
              emit st (Minst.Alu_rr (alu_of_op (Func.op f i), d, ry));
              d
        in
        canonicalize st ty d;
        finish_def st i
      end
  | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem -> emit_div st i
  | Op.Cmp -> (
      let pred = Op.cmp_of_int (Func.n f i) in
      match Func.ty f x with
      | Ty.I128 -> emit_i128_cmp st i pred
      | Ty.F64 ->
          let rx = use st x in
          let ry = use ~avoid:[ rx ] st y in
          kill_dead_operand st x;
          kill_dead_operand st y;
          emit st (Minst.Fcmp_rr (rx, ry));
          let d = def st i in
          emit st (Minst.Setcc (cmp_to_cond pred, d));
          finish_def st i
      | _ ->
          let rx = use st x in
          let ry = use ~avoid:[ rx ] st y in
          kill_dead_operand st x;
          kill_dead_operand st y;
          emit st (Minst.Cmp_rr (rx, ry));
          if fusible st i then st.fused <- i
          else begin
            let d = def st i in
            emit st (Minst.Setcc (cmp_to_cond pred, d));
            finish_def st i
          end)
  | Op.Fcmp ->
      let pred = Op.cmp_of_int (Func.n f i) in
      let rx = use st x in
      let ry = use ~avoid:[ rx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      emit st (Minst.Fcmp_rr (rx, ry));
      let d = def st i in
      emit st (Minst.Setcc (cmp_to_cond pred, d));
      finish_def st i
  | Op.Zext ->
      let src_ty = Func.ty f x in
      let rx = use st x in
      kill_dead_operand st x;
      let d = def ~avoid:[ rx ] st i in
      let bits = match src_ty with Ty.I1 -> 1 | Ty.I8 -> 8 | Ty.I16 -> 16 | Ty.I32 -> 32 | _ -> 0 in
      if bits = 0 then emit st (Minst.Mov_rr (d, rx))
      else emit st (Minst.Ext { dst = d; src = rx; bits; signed = false });
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        emit st (Minst.Mov_ri (dhi, 0L))
      end;
      finish_def st i
  | Op.Sext ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def ~avoid:[ rx ] st i in
      (* sources are canonical (sign-extended), so the low lane is a move *)
      emit st (Minst.Mov_rr (d, rx));
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        emit st (Minst.Mov_rr (dhi, d));
        emit st (Minst.Alu_ri (Minst.Sar, dhi, 63L))
      end;
      finish_def st i
  | Op.Trunc ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def ~avoid:[ rx ] st i in
      emit st (Minst.Mov_rr (d, rx));
      (match ty with
      | Ty.I1 -> emit st (Minst.Alu_ri (Minst.And, d, 1L))
      | _ -> canonicalize st ty d);
      finish_def st i
  | Op.Select -> emit_select st i
  | Op.Load ->
      let base = use st x in
      kill_dead_operand st x;
      let off = Int64.to_int (Func.imm f i) in
      if ty = Ty.I128 then begin
        let d = def ~avoid:[ base ] st i in
        emit st (Minst.Ld { dst = d; base; off; size = 8; sext = false });
        let dhi = def_hi ~avoid:[ base; d ] st i in
        emit st (Minst.Ld { dst = dhi; base; off = off + 8; size = 8; sext = false })
      end
      else begin
        let d = def ~avoid:[ base ] st i in
        let size = max 1 (Ty.size_bytes ty) in
        let sext = ty <> Ty.I1 && size < 8 in
        emit st (Minst.Ld { dst = d; base; off; size; sext })
      end;
      finish_def st i
  | Op.Store ->
      let vty = Func.ty f x in
      let base = use st y in
      let off = Int64.to_int (Func.imm f i) in
      if vty = Ty.I128 then begin
        let lo = use ~avoid:[ base ] st x in
        emit st (Minst.St { src = lo; base; off; size = 8 });
        let hi = use_hi ~avoid:[ base; lo ] st x in
        emit st (Minst.St { src = hi; base; off = off + 8; size = 8 })
      end
      else begin
        let v = use ~avoid:[ base ] st x in
        let size = max 1 (Ty.size_bytes vty) in
        emit st (Minst.St { src = v; base; off; size })
      end;
      kill_dead_operand st x;
      kill_dead_operand st y
  | Op.Gep ->
      let base = use st x in
      let off = Int64.to_int (Func.imm f i) in
      if y >= 0 then begin
        let idx = use ~avoid:[ base ] st y in
        kill_dead_operand st x;
        kill_dead_operand st y;
        let scale = Func.n f i in
        let d = def ~avoid:[ base; idx ] st i in
        if scale = 1 || scale = 2 || scale = 4 || scale = 8 then
          emit st (Minst.Lea { dst = d; base; index = idx; scale; off })
        else begin
          emit st (Minst.Mov_rr (d, idx));
          emit st (Minst.Alu_ri (Minst.Mul, d, Int64.of_int scale));
          emit st (Minst.Alu_rr (Minst.Add, d, base));
          if off <> 0 then emit st (Minst.Alu_ri (Minst.Add, d, Int64.of_int off))
        end
      end
      else begin
        kill_dead_operand st x;
        let d = def ~avoid:[ base ] st i in
        emit st (Minst.Lea { dst = d; base; index = -1; scale = 1; off })
      end;
      finish_def st i
  | Op.Crc32 ->
      let racc = use st x in
      let rv = use ~avoid:[ racc ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ racc; rv ] st i in
      emit st (Minst.Mov_rr (d, racc));
      emit st (Minst.Crc32_rr (d, rv));
      finish_def st i
  | Op.Longmulfold ->
      (* rdx:rax = x * y (unsigned); result = rax ^ rdx *)
      evacuate ~avoid:[ rax; rdx ] st rax;
      evacuate ~avoid:[ rax; rdx ] st rdx;
      force_reg st x 0 rax;
      let ry = use ~avoid:[ rax; rdx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      evacuate ~avoid:[ rax; rdx; ry ] st rax;
      emit st (Minst.Mul_wide { signed = false; src = ry });
      emit st (Minst.Alu_rr (Minst.Xor, rax, rdx));
      attach st rax i 0;
      finish_def st i
  | Op.Atomicadd ->
      let base = use st x in
      let rv = use ~avoid:[ base ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ base; rv ] st i in
      let size = max 1 (Ty.size_bytes ty) in
      emit st (Minst.Ld { dst = d; base; off = 0; size; sext = size < 8 });
      let t = st.target.Target.scratch2 in
      evacuate st t;
      emit st (Minst.Mov_rr (t, d));
      emit st (Minst.Alu_rr (Minst.Add, t, rv));
      emit st (Minst.St { src = t; base; off = 0; size });
      finish_def st i
  | Op.Call -> emit_call st i
  | Op.Br ->
      parallel_move st (emit st) (edge_moves st x);
      if x <> next_block st then Asm.jmp st.asm st.block_labels.(x)
  | Op.Condbr -> emit_condbr st i
  | Op.Ret ->
      (if x >= 0 then begin
         let rty = Func.ty f x in
         if rty = Ty.I128 then begin
           force_reg st x 0 st.target.Target.ret_regs.(0);
           force_reg st x 1 st.target.Target.ret_regs.(1)
         end
         else force_reg st x 0 st.target.Target.ret_regs.(0)
       end);
      (* the epilogue follows the last block *)
      if next_block st >= 0 then Asm.jmp st.asm st.epilogue
  | Op.Unreachable -> emit st (Minst.Brk 0)
  | Op.Fadd | Op.Fsub | Op.Fmul | Op.Fdiv ->
      let rx = use st x in
      let ry = use ~avoid:[ rx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ rx; ry ] st i in
      emit st (Minst.Mov_rr (d, rx));
      let fop =
        match Func.op f i with
        | Op.Fadd -> Minst.Fadd
        | Op.Fsub -> Minst.Fsub
        | Op.Fmul -> Minst.Fmul
        | _ -> Minst.Fdiv
      in
      emit st (Minst.Falu_rr (fop, d, ry));
      finish_def st i
  | Op.Sitofp ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def ~avoid:[ rx ] st i in
      emit st (Minst.Cvt_si2f (d, rx));
      finish_def st i
  | Op.Fptosi ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def ~avoid:[ rx ] st i in
      emit st (Minst.Cvt_f2si (d, rx));
      finish_def st i

and emit_i128_bin st i =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  match Func.op f i with
  | Op.Add | Op.Sub ->
      let alu_lo, alu_hi =
        if Func.op f i = Op.Add then (Minst.Add, Minst.Adc) else (Minst.Sub, Minst.Sbb)
      in
      let xlo = use st x in
      let ylo = use ~avoid:[ xlo ] st y in
      let dlo = def ~avoid:[ xlo; ylo ] st i in
      emit st (Minst.Mov_rr (dlo, xlo));
      let xhi = use_hi ~avoid:[ dlo; ylo ] st x in
      let yhi = use_hi ~avoid:[ dlo; ylo; xhi ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let dhi = def_hi ~avoid:[ dlo; ylo; xhi; yhi ] st i in
      (* flags: add lo sets CF for the adc *)
      emit st (Minst.Mov_rr (dhi, xhi));
      emit st (Minst.Alu_rr (alu_lo, dlo, ylo));
      emit st (Minst.Alu_rr (alu_hi, dhi, yhi));
      finish_def st i
  | Op.And | Op.Or | Op.Xor ->
      let alu = alu_of_op (Func.op f i) in
      let xlo = use st x in
      let ylo = use ~avoid:[ xlo ] st y in
      let dlo = def ~avoid:[ xlo; ylo ] st i in
      emit st (Minst.Mov_rr (dlo, xlo));
      emit st (Minst.Alu_rr (alu, dlo, ylo));
      let xhi = use_hi ~avoid:[ dlo ] st x in
      let yhi = use_hi ~avoid:[ dlo; xhi ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let dhi = def_hi ~avoid:[ dlo; xhi; yhi ] st i in
      emit st (Minst.Mov_rr (dhi, xhi));
      emit st (Minst.Alu_rr (alu, dhi, yhi));
      finish_def st i
  | Op.Mul ->
      (* truncated 128x128 multiply:
         rdx:rax = xlo *u ylo; rdx += xhi*ylo + xlo*yhi *)
      evacuate ~avoid:[ rax; rdx ] st rax;
      evacuate ~avoid:[ rax; rdx ] st rdx;
      force_reg st x 0 rax;
      let ylo = use ~avoid:[ rax; rdx ] st y in
      let t = st.target.Target.scratch2 in
      evacuate st t;
      (* the widening multiply destroys rax; keep x's low lane reachable for
         the cross terms below even when it has no stack home *)
      let xlo_save = alloc_reg ~avoid:[ rax; rdx; ylo; t ] st in
      emit st (Minst.Mov_rr (xlo_save, rax));
      detach st rax;
      attach st xlo_save x 0;
      emit st (Minst.Mul_wide { signed = false; src = ylo });
      let xhi = use_hi ~avoid:[ rax; rdx; ylo ] st x in
      emit st (Minst.Mov_rr (t, xhi));
      emit st (Minst.Alu_rr (Minst.Mul, t, ylo));
      emit st (Minst.Alu_rr (Minst.Add, rdx, t));
      let xlo2 = use ~avoid:[ rax; rdx ] st x in
      let yhi = use_hi ~avoid:[ rax; rdx; xlo2 ] st y in
      emit st (Minst.Mov_rr (t, xlo2));
      emit st (Minst.Alu_rr (Minst.Mul, t, yhi));
      emit st (Minst.Alu_rr (Minst.Add, rdx, t));
      kill_dead_operand st x;
      kill_dead_operand st y;
      detach st rax;
      detach st rdx;
      attach st rax i 0;
      attach st rdx i 1;
      finish_def st i
  | _ -> unsupported "i128 op %s" (Op.name (Func.op f i))

and emit_addsub_trap st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  if ty = Ty.I128 then begin
    (* add/adc, overflow flag from the high half *)
    emit_i128_bin_as st i (if Func.op f i = Op.Saddtrap then Op.Add else Op.Sub);
    Asm.jcc st.asm Minst.Ov (trap st)
  end
  else begin
    let alu = alu_of_op (Func.op f i) in
    let rx = use st x in
    let ry = use ~avoid:[ rx ] st y in
    kill_dead_operand st x;
    kill_dead_operand st y;
    let d = def ~avoid:[ rx; ry ] st i in
    emit st (Minst.Mov_rr (d, rx));
    emit st (Minst.Alu_rr (alu, d, ry));
    (match ty with
    | Ty.I64 -> Asm.jcc st.asm Minst.Ov (trap st)
    | _ ->
        (* narrow: result must equal its own sign-extension *)
        let t = st.target.Target.scratch2 in
        evacuate st t;
        emit st (Minst.Ext { dst = t; src = d; bits = canon_bits ty; signed = true });
        emit st (Minst.Cmp_rr (t, d));
        Asm.jcc st.asm Minst.Ne (trap st);
        emit st (Minst.Mov_rr (d, t)));
    finish_def st i
  end

and emit_i128_bin_as st i op =
  (* like emit_i128_bin Add/Sub but with the result attached to [i] *)
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let alu_lo, alu_hi =
    if op = Op.Add then (Minst.Add, Minst.Adc) else (Minst.Sub, Minst.Sbb)
  in
  let xlo = use st x in
  let ylo = use ~avoid:[ xlo ] st y in
  let dlo = def ~avoid:[ xlo; ylo ] st i in
  emit st (Minst.Mov_rr (dlo, xlo));
  let xhi = use_hi ~avoid:[ dlo; ylo ] st x in
  let yhi = use_hi ~avoid:[ dlo; ylo; xhi ] st y in
  kill_dead_operand st x;
  kill_dead_operand st y;
  let dhi = def_hi ~avoid:[ dlo; ylo; xhi; yhi ] st i in
  emit st (Minst.Mov_rr (dhi, xhi));
  emit st (Minst.Alu_rr (alu_lo, dlo, ylo));
  emit st (Minst.Alu_rr (alu_hi, dhi, yhi));
  finish_def st i

and emit_i128_shift st i =
  (* Only constant shift amounts occur in generated code (hash extraction
     of the 128-bit halves); dynamic 128-bit shifts are unsupported. *)
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let amt =
    match const_of st y with
    | Some a -> Int64.to_int a land 127
    | None -> unsupported "dynamic 128-bit shift"
  in
  let op = Func.op f i in
  kill_dead_operand st y;
  if amt = 0 then begin
    let xlo = use st x in
    let dlo = def ~avoid:[ xlo ] st i in
    emit st (Minst.Mov_rr (dlo, xlo));
    let xhi = use_hi ~avoid:[ dlo ] st x in
    kill_dead_operand st x;
    let dhi = def_hi ~avoid:[ dlo; xhi ] st i in
    emit st (Minst.Mov_rr (dhi, xhi));
    finish_def st i
  end
  else if amt >= 64 then begin
    match op with
    | Op.Lshr | Op.Ashr ->
        let xhi = use_hi st x in
        kill_dead_operand st x;
        let dlo = def ~avoid:[ xhi ] st i in
        emit st (Minst.Mov_rr (dlo, xhi));
        if amt > 64 then
          emit st
            (Minst.Alu_ri
               ((if op = Op.Lshr then Minst.Shr else Minst.Sar), dlo, Int64.of_int (amt - 64)));
        let dhi = def_hi ~avoid:[ dlo; xhi ] st i in
        if op = Op.Lshr then emit st (Minst.Mov_ri (dhi, 0L))
        else begin
          emit st (Minst.Mov_rr (dhi, xhi));
          emit st (Minst.Alu_ri (Minst.Sar, dhi, 63L))
        end;
        finish_def st i
    | Op.Shl ->
        let xlo = use st x in
        kill_dead_operand st x;
        let dhi = def_hi ~avoid:[ xlo ] st i in
        emit st (Minst.Mov_rr (dhi, xlo));
        if amt > 64 then
          emit st (Minst.Alu_ri (Minst.Shl, dhi, Int64.of_int (amt - 64)));
        let dlo = def ~avoid:[ dhi ] st i in
        emit st (Minst.Mov_ri (dlo, 0L));
        finish_def st i
    | _ -> unsupported "i128 rotate"
  end
  else begin
    (* amt in 1..63 *)
    let t = st.target.Target.scratch2 in
    evacuate st t;
    match op with
    | Op.Lshr | Op.Ashr ->
        let xlo = use st x in
        let xhi = use_hi ~avoid:[ xlo ] st x in
        kill_dead_operand st x;
        let dlo = def ~avoid:[ xlo; xhi ] st i in
        emit st (Minst.Mov_rr (dlo, xlo));
        emit st (Minst.Alu_ri (Minst.Shr, dlo, Int64.of_int amt));
        emit st (Minst.Mov_rr (t, xhi));
        emit st (Minst.Alu_ri (Minst.Shl, t, Int64.of_int (64 - amt)));
        emit st (Minst.Alu_rr (Minst.Or, dlo, t));
        let dhi = def_hi ~avoid:[ dlo; xhi ] st i in
        emit st (Minst.Mov_rr (dhi, xhi));
        emit st
          (Minst.Alu_ri
             ((if op = Op.Lshr then Minst.Shr else Minst.Sar), dhi, Int64.of_int amt));
        finish_def st i
    | Op.Shl ->
        let xlo = use st x in
        let xhi = use_hi ~avoid:[ xlo ] st x in
        kill_dead_operand st x;
        let dhi = def_hi ~avoid:[ xlo; xhi ] st i in
        emit st (Minst.Mov_rr (dhi, xhi));
        emit st (Minst.Alu_ri (Minst.Shl, dhi, Int64.of_int amt));
        emit st (Minst.Mov_rr (t, xlo));
        emit st (Minst.Alu_ri (Minst.Shr, t, Int64.of_int (64 - amt)));
        emit st (Minst.Alu_rr (Minst.Or, dhi, t));
        let dlo = def ~avoid:[ dhi; xlo ] st i in
        emit st (Minst.Mov_rr (dlo, xlo));
        emit st (Minst.Alu_ri (Minst.Shl, dlo, Int64.of_int amt));
        finish_def st i
    | _ -> unsupported "i128 rotate"
  end

and emit_mul_trap st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  match ty with
  | Ty.I64 ->
      let rx = use st x in
      let ry = use ~avoid:[ rx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ rx; ry ] st i in
      emit st (Minst.Mov_rr (d, rx));
      emit st (Minst.Alu_rr (Minst.Mul, d, ry));
      Asm.jcc st.asm Minst.Ov (trap st);
      finish_def st i
  | Ty.I128 ->
      (* Fast path when both operands fit in 64 bits (the optimization from
         Sec. V-A1/VI-A1): one signed widening multiply into rdx:rax.
         Otherwise an out-of-line stub calls the hand-optimized runtime
         helper, saving and restoring the live registers around the call,
         so both paths meet with the same register state. *)
      let asm = st.asm in
      let fixed = [ rax; rdx ] in
      let xlo = use ~avoid:fixed st x in
      let xhi = use_hi ~avoid:(xlo :: fixed) st x in
      let ylo, yhi =
        if y = x then (xlo, xhi)
        else
          let ylo = use ~avoid:(xlo :: xhi :: fixed) st y in
          (ylo, use_hi ~avoid:(ylo :: xlo :: xhi :: fixed) st y)
      in
      let keep = xlo :: xhi :: ylo :: yhi :: fixed in
      evacuate ~avoid:keep st rax;
      evacuate ~avoid:keep st rdx;
      let slow = Asm.new_label asm and done_ = Asm.new_label asm in
      let t = st.target.Target.scratch2 in
      let fits lo hi =
        emit st (Minst.Mov_rr (t, lo));
        emit st (Minst.Alu_ri (Minst.Sar, t, 63L));
        emit st (Minst.Cmp_rr (t, hi));
        Asm.jcc asm Minst.Ne slow
      in
      fits xlo xhi;
      fits ylo yhi;
      runtime_stub st ~slow ~done_ ~args:[ xlo; xhi; ylo; yhi ] ~results:fixed
        "umbra_i128MulFull";
      (* fast: exact, cannot overflow 128 bits *)
      emit st (Minst.Mov_rr (rax, xlo));
      emit st (Minst.Mul_wide { signed = true; src = ylo });
      Asm.bind asm done_;
      kill_dead_operand st x;
      kill_dead_operand st y;
      attach st rax i 0;
      attach st rdx i 1;
      finish_def st i
  | _ ->
      (* narrow: multiply in 64-bit, check canonical *)
      let rx = use st x in
      let ry = use ~avoid:[ rx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ rx; ry ] st i in
      emit st (Minst.Mov_rr (d, rx));
      emit st (Minst.Alu_rr (Minst.Mul, d, ry));
      let t = st.target.Target.scratch2 in
      evacuate st t;
      emit st (Minst.Ext { dst = t; src = d; bits = canon_bits ty; signed = true });
      emit st (Minst.Cmp_rr (t, d));
      Asm.jcc st.asm Minst.Ne (trap st);
      emit st (Minst.Mov_rr (d, t));
      finish_def st i

and emit_div st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  if ty = Ty.I128 then unsupported "i128 division must go through the runtime";
  let signed = Func.op f i = Op.Sdiv || Func.op f i = Op.Srem in
  let want_rem = Func.op f i = Op.Srem || Func.op f i = Op.Urem in
  evacuate ~avoid:[ rax; rdx ] st rax;
  evacuate ~avoid:[ rax; rdx ] st rdx;
  force_reg st x 0 rax;
  let ry = use ~avoid:[ rax; rdx ] st y in
  kill_dead_operand st x;
  kill_dead_operand st y;
  evacuate ~avoid:[ rax; rdx; ry ] st rax;
  if signed then begin
    emit st (Minst.Mov_rr (rdx, rax));
    emit st (Minst.Alu_ri (Minst.Sar, rdx, 63L))
  end
  else emit st (Minst.Mov_ri (rdx, 0L));
  emit st (Minst.Div { signed; src = ry });
  let res = if want_rem then rdx else rax in
  attach st res i 0;
  canonicalize st ty res;
  finish_def st i

and emit_i128_cmp st i pred =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let xlo = use st x in
  let ylo = use ~avoid:[ xlo ] st y in
  let t = st.target.Target.scratch2 in
  evacuate st t;
  match pred with
  | Op.Eq | Op.Ne ->
      emit st (Minst.Cmp_rr (xlo, ylo));
      emit st (Minst.Setcc (Minst.Eq, t));
      let xhi = use_hi ~avoid:[ xlo; ylo; t ] st x in
      let yhi = use_hi ~avoid:[ xlo; ylo; t; xhi ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ t; xhi; yhi ] st i in
      emit st (Minst.Cmp_rr (xhi, yhi));
      emit st (Minst.Setcc (Minst.Eq, d));
      emit st (Minst.Alu_rr (Minst.And, d, t));
      if pred = Op.Ne then emit st (Minst.Alu_ri (Minst.Xor, d, 1L));
      finish_def st i
  | _ ->
      (* hi words decide unless equal; lo words compare unsigned *)
      let unsigned_pred =
        match pred with
        | Op.Slt | Op.Ult -> Minst.Ult
        | Op.Sle | Op.Ule -> Minst.Ule
        | Op.Sgt | Op.Ugt -> Minst.Ugt
        | Op.Sge | Op.Uge -> Minst.Uge
        | _ -> assert false
      in
      let hi_pred =
        match pred with
        | Op.Slt -> Minst.Slt
        | Op.Sle -> Minst.Slt
        | Op.Sgt -> Minst.Sgt
        | Op.Sge -> Minst.Sgt
        | Op.Ult -> Minst.Ult
        | Op.Ule -> Minst.Ult
        | Op.Ugt -> Minst.Ugt
        | Op.Uge -> Minst.Ugt
        | _ -> assert false
      in
      emit st (Minst.Cmp_rr (xlo, ylo));
      emit st (Minst.Setcc (unsigned_pred, t));
      let xhi = use_hi ~avoid:[ xlo; ylo; t ] st x in
      let yhi = use_hi ~avoid:[ xlo; ylo; t; xhi ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ t; xhi; yhi ] st i in
      emit st (Minst.Cmp_rr (xhi, yhi));
      (* d = strict hi comparison; when the hi words are equal the unsigned
         lo comparison (already in t) decides *)
      emit st (Minst.Setcc (hi_pred, d));
      emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t });
      finish_def st i

and emit_select st i =
  let f = st.f in
  let ty = Func.ty f i in
  let c = Func.x f i and a = Func.y f i and b = Func.z f i in
  if ty = Ty.I128 then begin
    let ra = use st a in
    let rb = use ~avoid:[ ra ] st b in
    let rc = use ~avoid:[ ra; rb ] st c in
    let d = def ~avoid:[ ra; rb; rc ] st i in
    emit st (Minst.Mov_rr (d, ra));
    emit st (Minst.Cmp_ri (rc, 0L));
    emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = rb });
    let rahi = use_hi ~avoid:[ d; rb; rc ] st a in
    let rbhi = use_hi ~avoid:[ d; rb; rc; rahi ] st b in
    kill_dead_operand st a;
    kill_dead_operand st b;
    kill_dead_operand st c;
    let dhi = def_hi ~avoid:[ d; rahi; rbhi; rc ] st i in
    emit st (Minst.Mov_rr (dhi, rahi));
    emit st (Minst.Csel { cond = Minst.Ne; dst = dhi; a = dhi; b = rbhi });
    finish_def st i
  end
  else begin
    let ra = use st a in
    let rb = use ~avoid:[ ra ] st b in
    let rc = use ~avoid:[ ra; rb ] st c in
    kill_dead_operand st a;
    kill_dead_operand st b;
    kill_dead_operand st c;
    let d = def ~avoid:[ ra; rb; rc ] st i in
    emit st (Minst.Mov_rr (d, ra));
    emit st (Minst.Cmp_ri (rc, 0L));
    emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = rb });
    finish_def st i
  end

and emit_call st i =
  match st.intrinsics.(Func.z st.f i) with
  | Some Analysis.Str_eq -> emit_str_eq st i
  | Some Analysis.Str_hash -> emit_str_hash st i
  | None -> emit_runtime_call st i

and emit_runtime_call st i =
  let f = st.f in
  let ty = Func.ty f i in
  (* no register survives the call: write home what is read after it, then
     move every argument from where it is into its register at once *)
  spill_live_after st;
  let arg_regs = st.target.Target.arg_regs in
  let k = ref 0 in
  let moves = ref [] in
  List.iter
    (fun a ->
      for lane = 0 to lanes st a - 1 do
        let s = src_loc st a lane in
        if s == nowhere then unsupported "call argument %%%d has no location" a;
        moves := (s, st.reg_loc.(arg_regs.(!k))) :: !moves;
        incr k
      done)
    (Func.call_args f i);
  parallel_move st (emit st) !moves;
  clear_regs st;
  let addr = st.extern_addr (Func.z f i) in
  let sc = st.target.Target.scratch in
  emit st (Minst.Mov_ri (sc, addr));
  emit st (Minst.Call_ind sc);
  if ty <> Ty.Void then begin
    attach st st.target.Target.ret_regs.(0) i 0;
    if ty = Ty.I128 then attach st st.target.Target.ret_regs.(1) i 1;
    finish_def st i
  end

(* Short-string equality from the two words of each struct (see {!Sso}):
   different length words mean different strings, equal second words the
   same inline bytes or the same body, and two short strings that differ
   in their second word differ. Only long strings that share length and
   prefix but not a body reach the runtime, in a stub. *)
and emit_str_eq st i =
  let a, b =
    match Func.call_args st.f i with
    | [ a; b ] -> (a, b)
    | _ -> unsupported "umbra_strEq takes two strings"
  in
  let ra = use st a in
  let rb = if b = a then ra else use ~avoid:[ ra ] st b in
  kill_dead_operand st a;
  kill_dead_operand st b;
  let d = def ~avoid:[ ra; rb ] st i in
  let t = st.target.Target.scratch2 in
  let asm = st.asm in
  let slow = Asm.new_label asm and done_ = Asm.new_label asm in
  let ld dst base off size = emit st (Minst.Ld { dst; base; off; size; sext = false }) in
  (* mov leaves the flags alone: each test sets the result, then jumps *)
  let decide off result cond =
    ld d ra off 8;
    ld t rb off 8;
    emit st (Minst.Cmp_rr (d, t));
    emit st (Minst.Mov_ri (d, result));
    Asm.jcc asm cond done_
  in
  decide 0 0L Minst.Ne;
  decide 8 1L Minst.Eq;
  ld d ra 0 4;
  emit st (Minst.Cmp_ri (d, Int64.of_int Qcomp_runtime.Sso.inline_max));
  emit st (Minst.Mov_ri (d, 0L));
  Asm.jcc asm Minst.Ugt slow;
  Asm.bind asm done_;
  runtime_stub st ~slow ~done_ ~args:[ ra; rb ] ~results:[ d ] "umbra_strEq";
  finish_def st i

(* The short-string hash of {!Sso.hash} from the struct's two words, the
   multiply in rdx:rax; a long string's stub calls the runtime. *)
and emit_str_hash st i =
  let s =
    match Func.call_args st.f i with [ s ] -> s | _ -> unsupported "umbra_strHash takes one string"
  in
  evacuate ~avoid:[ rax; rdx ] st rax;
  evacuate ~avoid:[ rax; rdx ] st rdx;
  let rs = use ~avoid:[ rax; rdx ] st s in
  kill_dead_operand st s;
  let t = st.target.Target.scratch2 in
  let asm = st.asm in
  let slow = Asm.new_label asm and done_ = Asm.new_label asm in
  emit st (Minst.Ld { dst = rdx; base = rs; off = 0; size = 8; sext = false });
  emit st (Minst.Ext { dst = rax; src = rdx; bits = 32; signed = false });
  emit st (Minst.Cmp_ri (rax, Int64.of_int Qcomp_runtime.Sso.inline_max));
  Asm.jcc asm Minst.Ugt slow;
  emit st (Minst.Mov_ri (rax, Qcomp_runtime.Sso.hash_seed));
  emit st (Minst.Crc32_rr (rax, rdx));
  emit st (Minst.Ld { dst = rdx; base = rs; off = 8; size = 8; sext = false });
  emit st (Minst.Crc32_rr (rax, rdx));
  emit st (Minst.Mov_ri (t, Qcomp_runtime.Sso.golden));
  emit st (Minst.Mul_wide { signed = false; src = t });
  emit st (Minst.Alu_rr (Minst.Xor, rax, rdx));
  Asm.bind asm done_;
  runtime_stub st ~slow ~done_ ~args:[ rs ] ~results:[ rax ] "umbra_strHash";
  attach st rax i 0;
  finish_def st i

(* The branch jumps on the flags the fused compare left, or tests the
   condition value. Nothing between the compare and the jump touches the
   flags: edge moves are only mov, ld and st. The edge into the block
   laid out next falls through; otherwise the edge without moves is the
   one taken by the conditional jump. A taken edge with moves runs them
   in an out-of-line stub. *)
and emit_condbr st i =
  let f = st.f in
  let c = Func.x f i and tb = Func.y f i and eb = Func.z f i in
  let cond =
    if st.fused = c then begin
      st.fused <- -1;
      match Func.op f c with
      | Op.Cmp -> cmp_to_cond (Op.cmp_of_int (Func.n f c))
      | Op.Isnull -> Minst.Eq
      | _ -> Minst.Ne
    end
    else begin
      let rc = use st c in
      kill_dead_operand st c;
      emit st (Minst.Cmp_ri (rc, 0L));
      Minst.Ne
    end
  in
  let to_then = edge_moves st tb in
  let to_else = edge_moves st eb in
  let next = next_block st in
  let fall_else = eb = next || (tb <> next && to_then = [] && to_else <> []) in
  let fall, fall_moves, jump, jump_moves, jcond =
    if fall_else then (eb, to_else, tb, to_then, cond)
    else (tb, to_then, eb, to_else, negate cond)
  in
  (if jump_moves = [] then Asm.jcc st.asm jcond st.block_labels.(jump)
   else begin
     let stub = Asm.new_label st.asm in
     Asm.jcc st.asm jcond stub;
     st.stubs <- (stub, moves_code st jump_moves, st.block_labels.(jump)) :: st.stubs
   end);
  parallel_move st (emit st) fall_moves;
  if fall <> next then Asm.jmp st.asm st.block_labels.(fall)
