(** DirectEmit code generation: one pass over the blocks in the analysis
    layout, translating each Umbra IR instruction directly to x86-64
    machine code with on-the-fly greedy register allocation (Sec. VII).
    The allocator is the register-assignment half of TPDE (Schwarz et al.)
    over {!Analysis}' liveness intervals.

    Location discipline: a value lives in a register from its definition
    to its last use, which the analysis' liveness intervals place, and its
    stack home is written only when needed: when its register is taken
    while it is still live (eviction, a fixed-register instruction, a
    call, or an edge into a block that expects it at home), or once at the
    definition for a value live across a call inside a loop that does not
    define it and that did not get a callee-saved register. Every live
    value is in a register or in its up-to-date home.

    Register reuse: a two-address instruction whose left operand dies at
    it defines its result in that operand's register, with no copy (a
    commutative one also takes a dying right operand's); extensions,
    truncations and conversions do the same.

    Constants are immediates: a 64-bit [Const] right operand of an ALU op
    or compare that fits a sign-extended imm32 is encoded in the
    instruction, and a constant is materialised only where a use needs it
    in a register. A constant has no stack home: when its register is
    taken it is simply dropped and materialised again at its next use or
    edge.

    Calls: a value read after a runtime call stays in rbx or r12-r15,
    which survive the call; one in a caller-saved register moves to a free
    callee-saved one or, when none is free, to its home. The prologue
    saves the callee-saved registers the function uses and the epilogue
    restores them.

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
    out-of-line stub that saves and restores every live caller-saved
    register ([runtime_stub]), so neither path clobbers a register and the
    analysis does not count these calls as calls. DWARF CFI is written in
    parallel, synchronous-only. *)

open Qcomp_support
open Qcomp_ir
open Qcomp_vm

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(** A move source or destination: a register, a frame offset from sp, or
    (a source only) a constant. *)
type loc = R of int | M of int | I of int64

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
  mutable fused_cond : Minst.cond;  (** the condition [fused] leaves in the flags *)
  mutable folded : int;  (** address whose load right after it reads it, -1 *)
  callee_saved : bool array;  (** reg -> allocatable and preserved across calls *)
  used_saved : bool array;  (** reg -> callee-saved and written by the function *)
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
    fused_cond = Minst.Ne;
    folded = -1;
    callee_saved =
      Array.init target.Target.num_regs (fun r ->
          Target.is_callee_saved target r && Array.mem r target.Target.allocatable);
    used_saved = Array.make target.Target.num_regs false;
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
  if st.callee_saved.(r) then st.used_saved.(r) <- true;
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

(** The constant lane [lane] of [v] holds, when [v] is a constant: it is
    materialised where needed and never written home. *)
let remat st v lane =
  match Func.op st.f v with
  | Op.Const ->
      let c = Func.imm st.f v in
      Some (if lane = 0 then c else Int64.shift_right c 63)
  | Op.Const128 ->
      let hi, lo = Func.const128_value st.f v in
      Some (if lane = 0 then lo else hi)
  | _ -> None

let is_const st v = match Func.op st.f v with Op.Const | Op.Const128 -> true | _ -> false

(** [v] as a sign-extended 32-bit immediate operand of a 64-bit
    instruction, when it is a constant that fits one. *)
let imm32 st v =
  if Func.op st.f v = Op.Const && Func.ty st.f v <> Ty.I128 then
    let c = Func.imm st.f v in
    if Asm.fits_i32 c then Some c else None
  else None

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

(** Pick a register to allocate, evicting if necessary. [avoid] registers
    are never picked. A free callee-saved register comes first when
    [saved] holds. *)
let alloc_reg ?(avoid = []) ?(saved = false) st =
  let ok r = not (List.mem r avoid) in
  let alloc = st.target.Target.allocatable in
  (* free register first *)
  let free_in want =
    Array.fold_left
      (fun acc r ->
        match acc with
        | Some _ -> acc
        | None -> if ok r && st.reg_owner.(r) < 0 && want r then Some r else None)
      None alloc
  in
  let free =
    match if saved then free_in (fun r -> st.callee_saved.(r)) else None with
    | Some _ as r -> r
    | None -> free_in (fun _ -> true)
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
          (if is_const st v then 0 else if st.clean.(v) then 10 else 1000)
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

(* Load lane [lane] of [v] from its home into [r], or materialise it
   there when [v] is a constant. *)
let load_lane st v lane r =
  match remat st v lane with
  | Some c ->
      emit st (Minst.Mov_ri (r, c));
      attach st r v lane
  | None ->
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

(* every register lane of [v] is callee-saved *)
let survives_calls st v =
  let ok r = r < 0 || st.callee_saved.(r) in
  ok st.reg_of.(v) && ok st.reg2_of.(v)

(** Allocate result register(s) for value [v]; one live across a call
    takes a callee-saved register when one is free. *)
let def_lane ?(avoid = []) st v lane =
  let r = alloc_reg ~avoid ~saved:st.an.Analysis.crosses_call.(v) st in
  attach st r v lane;
  r

let def ?avoid st v = def_lane ?avoid st v 0
let def_hi ?avoid st v = def_lane ?avoid st v 1

(** After computing a definition: free it if nothing reads it, write its
    home now if a call inside a loop would otherwise write it on every
    iteration, unless it sits in a callee-saved register, which the call
    leaves alone. *)
let finish_def st v =
  st.clean.(v) <- false;
  if st.an.Analysis.uses.(v) = 0 then drop st v
  else if st.an.Analysis.home_at_def.(v) && not (survives_calls st v) then write_home st v

(** Free registers of operands whose last use has passed. *)
let kill_dead_operand st v =
  if
    st.an.Analysis.hi.(v) = st.cur_idx
    && st.an.Analysis.last_use.(v) <= st.cur_pos
  then drop st v

(** The register for lane [lane] of [i], computed from register [rx]
    holding an operand: [rx] itself when that operand died here (its
    register is free), else a fresh register outside [avoid]. A result
    that would be written home at its definition (live across a call in
    a loop) passes over a caller-saved [rx] for a free callee-saved
    register. *)
let def_over ?(avoid = []) st i lane rx =
  let wants_saved () =
    st.an.Analysis.home_at_def.(i)
    && (not st.callee_saved.(rx))
    && Array.exists
         (fun r -> st.callee_saved.(r) && st.reg_owner.(r) < 0 && not (List.mem r avoid))
         st.target.Target.allocatable
  in
  if st.reg_owner.(rx) < 0 && not (wants_saved ()) then begin
    attach st rx i lane;
    rx
  end
  else def_lane ~avoid:(rx :: avoid) st i lane

(** Lane [lane] of [i] as a copy of register [rx], to be updated in place
    by a two-address instruction: [rx] itself when its operand died here,
    else a fresh register and a move. *)
let def_copy ?avoid st i lane rx =
  let d = def_over ?avoid st i lane rx in
  if d <> rx then emit st (Minst.Mov_rr (d, rx));
  d

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

(** Force [v]'s lane into the specific register [r]; [r]'s owner moves
    out, to a register outside [avoid]. *)
let force_reg ?avoid st v lane r =
  let cur = if lane = 0 then st.reg_of.(v) else st.reg2_of.(v) in
  if cur <> r then begin
    evacuate ?avoid st r;
    if cur >= 0 then begin
      emit st (Minst.Mov_rr (r, cur));
      detach st cur;
      attach st r v lane
    end
    else load_lane st v lane r
  end

(* ---------------- edges ---------------- *)

(* Where lane [lane] of [v] is now: a register, its home, its constant,
   or [nowhere]. *)
let nowhere = M (-1)

let src_loc st v lane =
  let r = if lane = 0 then st.reg_of.(v) else st.reg2_of.(v) in
  if r >= 0 then st.reg_loc.(r)
  else
    match remat st v lane with
    | Some c -> I c
    | None -> if st.slot_of.(v) >= 0 then M (st.slot_of.(v) + (8 * lane)) else nowhere

(** Emit [moves] (source, destination) through [out] as if all at once;
    destinations are distinct, and a move onto its own source is dropped.
    A cycle is broken through the scratch register, a memory-to-memory
    move or a constant stored to memory goes through the secondary one. *)
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
    | I c, R b -> out (Minst.Mov_ri (b, c))
    | I c, M o ->
        out (Minst.Mov_ri (sc2, c));
        out (Minst.St { src = sc2; base = sp; off = o; size = 8 })
    | _, I _ -> invalid_arg "parallel_move: a constant is not a destination"
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
   calls out, which clears every caller-saved register, every value in a
   callee-saved register stays, read by the loop or not, since the calls
   preserve it, and of the others only those its header (and the body
   block after it) read, since the back edge would reload the others on
   every iteration. *)
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
         || (calls && (st.callee_saved.(r) || marked st v reads))
         || ((not calls) && an.Analysis.ext_end.(v) >= loop_end))
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
  let free_reg want =
    Array.find_opt (fun r -> (not taken.(r)) && want r) st.target.Target.allocatable
  in
  List.iter
    (fun p ->
      (* a phi live across a call prefers a callee-saved register *)
      let saved =
        if an.Analysis.crosses_call.(p) then free_reg (fun r -> st.callee_saved.(r)) else None
      in
      match if saved = None then free_reg (fun _ -> true) else saved with
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
    entered at [slow] and returning to [done_]: save every caller-saved
    register whose value is read after the current instruction, except
    the [results] the call defines; move the [args] registers into the
    argument registers; call [name]; move the return registers into
    [results]; restore. Both paths meet with the same register state. *)
let runtime_stub st ~slow ~done_ ~args ~results name =
  let code = ref [] in
  let out i = code := i :: !code in
  let save = save_area st in
  let saved = ref [] in
  Array.iteri
    (fun r v ->
      if v >= 0 && live_after st v && (not st.callee_saved.(r)) && not (List.mem r results)
      then begin
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

(* the predicate with its operands swapped *)
let swap_cmp : Op.cmp -> Op.cmp = function
  | Op.Slt -> Op.Sgt
  | Op.Sgt -> Op.Slt
  | Op.Sle -> Op.Sge
  | Op.Sge -> Op.Sle
  | Op.Ult -> Op.Ugt
  | Op.Ugt -> Op.Ult
  | Op.Ule -> Op.Uge
  | Op.Uge -> Op.Ule
  | (Op.Eq | Op.Ne) as c -> c

let commutes : Op.t -> bool = function
  | Op.Add | Op.Mul | Op.And | Op.Or | Op.Xor | Op.Saddtrap | Op.Smultrap | Op.Fadd | Op.Fmul ->
      true
  | _ -> false

(** [i] = [x] op [y] in one two-address instruction: [rr d s] is
    [d = d op s] and [imm d], when given, the same with [y] as an
    immediate. The result takes [x]'s register when [x] dies here, or
    [y]'s when only [y] dies and the op [commutes]; otherwise a copy of
    [x] in a fresh register. Returns the result register. *)
let two_address st i ~commutes ?imm rr x y =
  let rx = use st x in
  match imm with
  | Some ri ->
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def_copy st i 0 rx in
      emit st (ri d);
      d
  | None ->
      let ry = if y = x then rx else use ~avoid:[ rx ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      if commutes && st.reg_owner.(rx) >= 0 && st.reg_owner.(ry) < 0 then begin
        attach st ry i 0;
        emit st (rr ry rx);
        ry
      end
      else begin
        let d = def_copy ~avoid:[ ry ] st i 0 rx in
        emit st (rr d ry);
        d
      end

(** A 64-bit ALU op of [i] on its operands, a constant right one (the
    left one, for a commutative op) as an imm32. *)
let emit_alu st i op =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let c = commutes (Func.op f i) in
  let x, y = if c && imm32 st x <> None && imm32 st y = None then (y, x) else (x, y) in
  two_address st i ~commutes:c
    ?imm:(Option.map (fun k d -> Minst.Alu_ri (op, d, k)) (imm32 st y))
    (fun d s -> Minst.Alu_rr (op, d, s))
    x y

(* [v]'s two lanes as imm32 immediates, when it is such a constant *)
let imm32_pair st v =
  match (remat st v 0, remat st v 1) with
  | Some lo, Some hi when Asm.fits_i32 lo && Asm.fits_i32 hi -> Some (lo, hi)
  | _ -> None

(** [i] = [x] op [y] on 128-bit values: [lo] on the low lanes, then [hi]
    on the high ones, back to back, so add/adc and sub/sbb carry through
    the flags. Register reuse and immediates as in [two_address]. *)
let emit_i128_lanes st i ~commutes lo hi =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let x, y =
    if commutes && imm32_pair st x <> None && imm32_pair st y = None then (y, x) else (x, y)
  in
  let xlo = use st x in
  let xhi = use_hi ~avoid:[ xlo ] st x in
  match imm32_pair st y with
  | Some (clo, chi) ->
      kill_dead_operand st x;
      kill_dead_operand st y;
      let dlo = def_copy ~avoid:[ xhi ] st i 0 xlo in
      let dhi = def_copy ~avoid:[ dlo ] st i 1 xhi in
      emit st (Minst.Alu_ri (lo, dlo, clo));
      emit st (Minst.Alu_ri (hi, dhi, chi))
  | None ->
      let ylo = if y = x then xlo else use ~avoid:[ xlo; xhi ] st y in
      let yhi = if y = x then xhi else use_hi ~avoid:[ xlo; xhi; ylo ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let dlo, dhi, slo, shi =
        if commutes && st.reg_owner.(xlo) >= 0 && st.reg_owner.(ylo) < 0 then begin
          attach st ylo i 0;
          attach st yhi i 1;
          (ylo, yhi, xlo, xhi)
        end
        else
          let dlo = def_copy ~avoid:[ xhi; ylo; yhi ] st i 0 xlo in
          let dhi = def_copy ~avoid:[ dlo; ylo; yhi ] st i 1 xhi in
          (dlo, dhi, ylo, yhi)
      in
      emit st (Minst.Alu_rr (lo, dlo, slo));
      emit st (Minst.Alu_rr (hi, dhi, shi))

let rec emit_inst st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  match Func.op f i with
  | Op.Nop | Op.Arg | Op.Phi -> ()
  | Op.Const | Op.Const128 ->
      (* materialised by the uses that need it in a register *)
      st.clean.(i) <- true
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
      set_cond st i (if Func.op f i = Op.Isnull then Minst.Eq else Minst.Ne)
  | Op.Add | Op.Sub | Op.Mul | Op.And | Op.Or | Op.Xor ->
      if ty = Ty.I128 then emit_i128_bin st i
      else begin
        let d = emit_alu st i (alu_of_op (Func.op f i)) in
        canonicalize st ty d;
        finish_def st i
      end
  | Op.Saddtrap | Op.Ssubtrap -> emit_addsub_trap st i
  | Op.Smultrap -> emit_mul_trap st i
  | Op.Shl | Op.Lshr | Op.Ashr | Op.Rotr ->
      if ty = Ty.I128 then emit_i128_shift st i
      else begin
        let op = alu_of_op (Func.op f i) in
        let d =
          two_address st i ~commutes:false
            ?imm:(Option.map (fun k d -> Minst.Alu_ri (op, d, k)) (const_of st y))
            (fun d s -> Minst.Alu_rr (op, d, s))
            x y
        in
        canonicalize st ty d;
        finish_def st i
      end
  | Op.Sdiv | Op.Udiv | Op.Srem | Op.Urem -> emit_div st i
  | Op.Cmp -> (
      let pred = Op.cmp_of_int (Func.n f i) in
      match Func.ty f x with
      | Ty.I128 -> emit_i128_cmp st i pred
      | Ty.F64 -> emit_fcmp st i pred
      | _ ->
          let x, y, pred =
            if imm32 st x <> None && imm32 st y = None then (y, x, swap_cmp pred) else (x, y, pred)
          in
          let rx = use st x in
          (match imm32 st y with
          | Some c ->
              kill_dead_operand st x;
              kill_dead_operand st y;
              emit st (Minst.Cmp_ri (rx, c))
          | None ->
              let ry = if y = x then rx else use ~avoid:[ rx ] st y in
              kill_dead_operand st x;
              kill_dead_operand st y;
              emit st (Minst.Cmp_rr (rx, ry)));
          set_cond st i (cmp_to_cond pred))
  | Op.Fcmp -> emit_fcmp st i (Op.cmp_of_int (Func.n f i))
  | Op.Zext ->
      let src_ty = Func.ty f x in
      let rx = use st x in
      kill_dead_operand st x;
      let bits = match src_ty with Ty.I1 -> 1 | Ty.I8 -> 8 | Ty.I16 -> 16 | Ty.I32 -> 32 | _ -> 0 in
      let d =
        if bits = 0 then def_copy st i 0 rx
        else begin
          let d = def_over st i 0 rx in
          emit st (Minst.Ext { dst = d; src = rx; bits; signed = false });
          d
        end
      in
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        emit st (Minst.Mov_ri (dhi, 0L))
      end;
      finish_def st i
  | Op.Sext ->
      let rx = use st x in
      kill_dead_operand st x;
      (* sources are canonical (sign-extended), so the low lane is a move *)
      let d = def_copy st i 0 rx in
      if ty = Ty.I128 then begin
        let dhi = def_hi ~avoid:[ d ] st i in
        emit st (Minst.Mov_rr (dhi, d));
        emit st (Minst.Alu_ri (Minst.Sar, dhi, 63L))
      end;
      finish_def st i
  | Op.Trunc ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def_copy st i 0 rx in
      (match ty with
      | Ty.I1 -> emit st (Minst.Alu_ri (Minst.And, d, 1L))
      | _ -> canonicalize st ty d);
      finish_def st i
  | Op.Select -> emit_select st i
  | Op.Load ->
      let off = Int64.to_int (Func.imm f i) in
      (* [base + off + k] for lane offset [k], or for a folded address
         [index * scale + disp + off + k] *)
      let base, ld =
        if st.folded = x then begin
          st.folded <- -1;
          let scale = Func.n f x in
          let disp = Int64.to_int (Option.get (gep_disp st x)) + off in
          let idx = use st (Func.y f x) in
          kill_dead_operand st (Func.x f x);
          kill_dead_operand st (Func.y f x);
          ( idx,
            fun dst k size sext ->
              Minst.Ldx { dst; base = -1; index = idx; scale; off = disp + k; size; sext } )
        end
        else begin
          let base = use st x in
          kill_dead_operand st x;
          (base, fun dst k size sext -> Minst.Ld { dst; base; off = off + k; size; sext })
        end
      in
      if ty = Ty.I128 then begin
        let d = def ~avoid:[ base ] st i in
        emit st (ld d 0 8 false);
        let dhi = def_hi ~avoid:[ base; d ] st i in
        emit st (ld dhi 8 8 false)
      end
      else begin
        let d = def_over st i 0 base in
        let size = max 1 (Ty.size_bytes ty) in
        let sext = ty <> Ty.I1 && size < 8 in
        emit st (ld d 0 size sext)
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
        let v = if x = y then base else use ~avoid:[ base ] st x in
        let size = max 1 (Ty.size_bytes vty) in
        emit st (Minst.St { src = v; base; off; size })
      end;
      kill_dead_operand st x;
      kill_dead_operand st y
  | Op.Gep -> if folds_into_load st i then st.folded <- i else emit_gep st i
  | Op.Crc32 ->
      ignore (two_address st i ~commutes:false (fun d s -> Minst.Crc32_rr (d, s)) x y);
      finish_def st i
  | Op.Longmulfold ->
      (* rdx:rax = x * y (unsigned); result = rax ^ rdx *)
      force_reg ~avoid:[ rax; rdx ] st x 0 rax;
      evacuate ~avoid:[ rax; rdx ] st rdx;
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
      let fop =
        match Func.op f i with
        | Op.Fadd -> Minst.Fadd
        | Op.Fsub -> Minst.Fsub
        | Op.Fmul -> Minst.Fmul
        | _ -> Minst.Fdiv
      in
      ignore
        (two_address st i ~commutes:(commutes (Func.op f i))
           (fun d s -> Minst.Falu_rr (fop, d, s))
           x y);
      finish_def st i
  | Op.Sitofp ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def_over st i 0 rx in
      emit st (Minst.Cvt_si2f (d, rx));
      finish_def st i
  | Op.Fptosi ->
      let rx = use st x in
      kill_dead_operand st x;
      let d = def_over st i 0 rx in
      emit st (Minst.Cvt_f2si (d, rx));
      finish_def st i

(* The flags hold [i]'s condition [cond]: the branch right after [i] jumps
   on them, or [i] is materialised. *)
and set_cond st i cond =
  if fusible st i then begin
    st.fused <- i;
    st.fused_cond <- cond
  end
  else begin
    let d = def st i in
    emit st (Minst.Setcc (cond, d));
    finish_def st i
  end

and emit_fcmp st i pred =
  let x = Func.x st.f i and y = Func.y st.f i in
  let rx = use st x in
  let ry = if y = x then rx else use ~avoid:[ rx ] st y in
  kill_dead_operand st x;
  kill_dead_operand st y;
  emit st (Minst.Fcmp_rr (rx, ry));
  set_cond st i (cmp_to_cond pred)

(* The displacement of Gep [i] as an address without a base, when it has
   an index, a scale of 1, 2, 4 or 8 and a constant base that fits a
   disp32 with its offset *)
and gep_disp st i =
  let f = st.f in
  let scale = Func.n f i in
  if Func.y f i < 0 || not (scale = 1 || scale = 2 || scale = 4 || scale = 8) then None
  else
    match imm32 st (Func.x f i) with
    | Some c ->
        let d = Int64.add c (Func.imm f i) in
        if Asm.fits_i32 d then Some d else None
    | None -> None

(* Gep [i]'s only use is the load right after it, which reads the address
   as its memory operand: [i] is not emitted, as a constant is not
   materialised at its definition *)
and folds_into_load st i =
  st.an.Analysis.uses.(i) = 1
  &&
  match gep_disp st i with
  | None -> false
  | Some d ->
      let insts = Func.block_insts st.f st.cur_block in
      st.cur_pos + 1 < Vec.length insts
      &&
      let j = Vec.get insts (st.cur_pos + 1) in
      Func.op st.f j = Op.Load
      && Func.x st.f j = i
      && Asm.fits_i32 (Int64.add d (Int64.add (Func.imm st.f j) 8L))

(* base + index * scale + offset: one lea for scales 1, 2, 4 and 8, with
   no base register when the base is a constant that fits a disp32, a
   shift for other powers of two, a multiply otherwise; a constant base
   that fits folds into the add *)
and emit_gep st i =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  let off = Int64.to_int (Func.imm f i) in
  let scale = Func.n f i in
  (match gep_disp st i with
  | Some disp ->
      let idx = use st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def_over st i 0 idx in
      emit st (Minst.Lea { dst = d; base = -1; index = idx; scale; off = Int64.to_int disp })
  | None when y < 0 ->
      let base = use st x in
      kill_dead_operand st x;
      let d = def_over st i 0 base in
      if d <> base || off <> 0 then
        emit st (Minst.Lea { dst = d; base; index = -1; scale = 1; off })
  | None when scale = 1 || scale = 2 || scale = 4 || scale = 8 ->
      let base = use st x in
      let idx = if y = x then base else use ~avoid:[ base ] st y in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def_over st i 0 base in
      emit st (Minst.Lea { dst = d; base; index = idx; scale; off })
  | None -> (
      let base_imm =
        match imm32 st x with
        | Some c when Asm.fits_i32 (Int64.add c (Int64.of_int off)) ->
            Some (Int64.add c (Int64.of_int off))
        | _ -> None
      in
      let idx = use st y in
      let rbase = if base_imm = None then use ~avoid:[ idx ] st x else -1 in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def_copy ~avoid:[ rbase ] st i 0 idx in
      (if scale land (scale - 1) = 0 then
         let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
         emit st (Minst.Alu_ri (Minst.Shl, d, Int64.of_int (log2 scale)))
       else emit st (Minst.Alu_ri (Minst.Mul, d, Int64.of_int scale)));
      match base_imm with
      | Some c -> if c <> 0L then emit st (Minst.Alu_ri (Minst.Add, d, c))
      | None ->
          emit st (Minst.Alu_rr (Minst.Add, d, rbase));
          if off <> 0 then emit st (Minst.Alu_ri (Minst.Add, d, Int64.of_int off))));
  finish_def st i

and emit_i128_bin st i =
  let f = st.f in
  let x = Func.x f i and y = Func.y f i in
  match Func.op f i with
  | Op.Add | Op.Sub -> emit_i128_addsub st i (Func.op f i)
  | Op.And | Op.Or | Op.Xor ->
      let alu = alu_of_op (Func.op f i) in
      emit_i128_lanes st i ~commutes:true alu alu;
      finish_def st i
  | Op.Mul ->
      (* truncated 128x128 multiply:
         rdx:rax = xlo *u ylo; rdx += xhi*ylo + xlo*yhi *)
      force_reg ~avoid:[ rax; rdx ] st x 0 rax;
      evacuate ~avoid:[ rax; rdx ] st rdx;
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

(* 128-bit add/adc or sub/sbb; the flags keep the high half's overflow *)
and emit_i128_addsub st i op =
  if op = Op.Add then emit_i128_lanes st i ~commutes:true Minst.Add Minst.Adc
  else emit_i128_lanes st i ~commutes:false Minst.Sub Minst.Sbb;
  finish_def st i

and emit_addsub_trap st i =
  let f = st.f in
  let ty = Func.ty f i in
  let op = if Func.op f i = Op.Saddtrap then Op.Add else Op.Sub in
  if ty = Ty.I128 then begin
    emit_i128_addsub st i op;
    Asm.jcc st.asm Minst.Ov (trap st)
  end
  else begin
    let d = emit_alu st i (alu_of_op op) in
    trap_unless_fits st ty d;
    finish_def st i
  end

(* after a 64-bit op into [d] that overflows [ty]: trap on overflow, which
   for a narrow [ty] means the result differs from its own sign-extension *)
and trap_unless_fits st ty d =
  match ty with
  | Ty.I64 -> Asm.jcc st.asm Minst.Ov (trap st)
  | _ ->
      let t = st.target.Target.scratch2 in
      evacuate st t;
      emit st (Minst.Ext { dst = t; src = d; bits = canon_bits ty; signed = true });
      emit st (Minst.Cmp_rr (t, d));
      Asm.jcc st.asm Minst.Ne (trap st)

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
  | Ty.I128 ->
      (* Fast path when both operands fit in 64 bits (the optimization from
         Sec. V-A1/VI-A1): one signed widening multiply into rdx:rax.
         Otherwise an out-of-line stub calls the hand-optimized runtime
         helper, saving and restoring the live registers around the call,
         so both paths meet with the same register state. A factor that
         provably fits (see [fits_64]) is not checked; when both do, the
         stub and the hi lanes are not needed at all. *)
      let asm = st.asm in
      let fixed = [ rax; rdx ] in
      let checked = List.filter (fun v -> not (fits_64 st v)) (if y = x then [ x ] else [ x; y ]) in
      (* an operand that dies here may already sit in rax/rdx: the checks
         only read it, and the multiply consumes it *)
      let dies v = st.an.Analysis.hi.(v) = st.cur_idx && st.an.Analysis.last_use.(v) <= st.cur_pos in
      let fixed_for v = if dies v then [] else fixed in
      let hi_of ~avoid v = if checked = [] then -1 else use_hi ~avoid st v in
      let xlo = use ~avoid:(fixed_for x) st x in
      let xhi = hi_of ~avoid:(xlo :: fixed_for x) x in
      let ylo, yhi =
        if y = x then (xlo, xhi)
        else
          let ylo = use ~avoid:(xlo :: xhi :: fixed_for y) st y in
          (ylo, hi_of ~avoid:(ylo :: xlo :: xhi :: fixed_for y) y)
      in
      let keep = xlo :: xhi :: ylo :: yhi :: fixed in
      List.iter
        (fun r ->
          let v = st.reg_owner.(r) in
          if not (v >= 0 && (v = x || v = y) && dies v) then evacuate ~avoid:keep st r)
        fixed;
      let done_ = Asm.new_label asm in
      if checked <> [] then begin
        let slow = Asm.new_label asm in
        let t = st.target.Target.scratch2 in
        let fits lo hi =
          emit st (Minst.Mov_rr (t, lo));
          emit st (Minst.Alu_ri (Minst.Sar, t, 63L));
          emit st (Minst.Cmp_rr (t, hi));
          Asm.jcc asm Minst.Ne slow
        in
        List.iter (fun v -> if v = x then fits xlo xhi else fits ylo yhi) checked;
        runtime_stub st ~slow ~done_ ~args:[ xlo; xhi; ylo; yhi ] ~results:fixed
          "umbra_i128MulFull"
      end;
      (* fast: exact, cannot overflow 128 bits; the product commutes, so
         the factor already in rax stays there *)
      let a, b = if ylo = rax then (ylo, xlo) else (xlo, ylo) in
      if a <> rax then emit st (Minst.Mov_rr (rax, a));
      emit st (Minst.Mul_wide { signed = true; src = b });
      Asm.bind asm done_;
      kill_dead_operand st x;
      kill_dead_operand st y;
      attach st rax i 0;
      attach st rdx i 1;
      finish_def st i
  | _ ->
      let d = emit_alu st i Minst.Mul in
      trap_unless_fits st ty d;
      finish_def st i

(* The hi lane of the 128-bit [v] is always its lo lane's sign: [v]
   sign-extends a value of at most 64 bits, or is a constant that does. *)
and fits_64 st v =
  match Func.op st.f v with
  | Op.Sext -> true
  | Op.Const | Op.Const128 -> (
      match (remat st v 0, remat st v 1) with
      | Some lo, Some hi -> hi = Int64.shift_right lo 63
      | _ -> false)
  | _ -> false

and emit_div st i =
  let f = st.f in
  let ty = Func.ty f i in
  let x = Func.x f i and y = Func.y f i in
  if ty = Ty.I128 then unsupported "i128 division must go through the runtime";
  let signed = Func.op f i = Op.Sdiv || Func.op f i = Op.Srem in
  let want_rem = Func.op f i = Op.Srem || Func.op f i = Op.Urem in
  force_reg ~avoid:[ rax; rdx ] st x 0 rax;
  evacuate ~avoid:[ rax; rdx ] st rdx;
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
  (* a constant [y] whose lanes fit compares as immediates *)
  let imm = imm32_pair st y in
  let cmp r lane yr =
    match imm with
    | Some (lo, hi) -> Minst.Cmp_ri (r, if lane = 0 then lo else hi)
    | None -> Minst.Cmp_rr (r, yr)
  in
  let xlo = use st x in
  let ylo = if imm <> None then -1 else use ~avoid:[ xlo ] st y in
  let t = st.target.Target.scratch2 in
  evacuate st t;
  let use_yhi avoid = if imm <> None then -1 else use_hi ~avoid st y in
  match pred with
  | Op.Eq | Op.Ne ->
      emit st (cmp xlo 0 ylo);
      emit st (Minst.Setcc (Minst.Eq, t));
      let xhi = use_hi ~avoid:[ xlo; ylo; t ] st x in
      let yhi = use_yhi [ xlo; ylo; t; xhi ] in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ t; xhi; yhi ] st i in
      emit st (cmp xhi 1 yhi);
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
      emit st (cmp xlo 0 ylo);
      emit st (Minst.Setcc (unsigned_pred, t));
      let xhi = use_hi ~avoid:[ xlo; ylo; t ] st x in
      let yhi = use_yhi [ xlo; ylo; t; xhi ] in
      kill_dead_operand st x;
      kill_dead_operand st y;
      let d = def ~avoid:[ t; xhi; yhi ] st i in
      emit st (cmp xhi 1 yhi);
      (* d = strict hi comparison; when the hi words are equal the unsigned
         lo comparison (already in t) decides *)
      emit st (Minst.Setcc (hi_pred, d));
      emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = t });
      finish_def st i

and emit_select st i =
  let f = st.f in
  let c = Func.x f i and a = Func.y f i and b = Func.z f i in
  if Func.ty f i = Ty.I128 then begin
    let ra = use st a in
    let rahi = use_hi ~avoid:[ ra ] st a in
    let rb = use ~avoid:[ ra; rahi ] st b in
    let rbhi = use_hi ~avoid:[ ra; rahi; rb ] st b in
    let rc = use ~avoid:[ ra; rahi; rb; rbhi ] st c in
    kill_dead_operand st a;
    kill_dead_operand st b;
    kill_dead_operand st c;
    let d = def_copy ~avoid:[ rahi; rb; rbhi; rc ] st i 0 ra in
    let dhi = def_copy ~avoid:[ d; rb; rbhi; rc ] st i 1 rahi in
    emit st (Minst.Cmp_ri (rc, 0L));
    emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = rb });
    emit st (Minst.Csel { cond = Minst.Ne; dst = dhi; a = dhi; b = rbhi })
  end
  else begin
    let ra = use st a in
    let rb = if b = a then ra else use ~avoid:[ ra ] st b in
    let rc = use ~avoid:[ ra; rb ] st c in
    kill_dead_operand st a;
    kill_dead_operand st b;
    kill_dead_operand st c;
    if st.reg_owner.(ra) >= 0 && st.reg_owner.(rb) < 0 then begin
      (* [b] dies, [a] lives on: the result keeps [b] unless [c] is set *)
      attach st rb i 0;
      emit st (Minst.Cmp_ri (rc, 0L));
      emit st (Minst.Csel { cond = Minst.Eq; dst = rb; a = rb; b = ra })
    end
    else begin
      let d = def_copy ~avoid:[ rb; rc ] st i 0 ra in
      emit st (Minst.Cmp_ri (rc, 0L));
      emit st (Minst.Csel { cond = Minst.Ne; dst = d; a = d; b = rb })
    end
  end;
  finish_def st i

and emit_call st i =
  match st.intrinsics.(Func.z st.f i) with
  | Some Analysis.Str_eq -> emit_str_eq st i
  | Some Analysis.Str_hash -> emit_str_hash st i
  | None -> emit_runtime_call st i

and emit_runtime_call st i =
  let f = st.f in
  let ty = Func.ty f i in
  let args = Func.call_args f i in
  keep_across_call st args;
  (* move every argument from where it is into its register at once *)
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
    args;
  parallel_move st (emit st) !moves;
  (* the call clobbers every caller-saved register *)
  for r = 0 to Array.length st.reg_owner - 1 do
    let v = st.reg_owner.(r) in
    if v >= 0 && not (st.callee_saved.(r) && live_after st v) then detach st r
  done;
  let addr = st.extern_addr (Func.z f i) in
  let sc = st.target.Target.scratch in
  emit st (Minst.Mov_ri (sc, addr));
  emit st (Minst.Call_ind sc);
  if ty <> Ty.Void then begin
    attach st st.target.Target.ret_regs.(0) i 0;
    if ty = Ty.I128 then attach st st.target.Target.ret_regs.(1) i 1;
    finish_def st i
  end

(* Before a runtime call with arguments [args]: a value read after it that
   sits in caller-saved registers moves to free callee-saved ones, dirty
   values first, or else is written home; a constant is left to be
   materialised again. A callee-saved register whose value dies at the call
   and is no argument of it counts as free. Of a 128-bit value with one
   lane in a callee-saved register, only the other lane goes home: the
   preserved lane stays, and the value stays dirty, since its home holds
   the lanes that are not in a register. *)
and keep_across_call st args =
  let free r =
    st.callee_saved.(r)
    &&
    let v = st.reg_owner.(r) in
    v < 0 || ((not (live_after st v)) && not (List.mem v args))
  in
  let move r c =
    let v = st.reg_owner.(r) and lane = st.reg_lane.(r) in
    detach st c;
    emit st (Minst.Mov_rr (c, r));
    detach st r;
    attach st c v lane
  in
  let allocatable = Array.to_list st.target.Target.allocatable in
  let keep ~dirty =
    List.iter
      (fun r ->
        let v = st.reg_owner.(r) in
        if
          v >= 0
          && (not st.callee_saved.(r))
          && st.clean.(v) <> dirty
          && live_after st v
          && not (is_const st v)
        then begin
          let exposed, preserved =
            List.partition
              (fun r -> not st.callee_saved.(r))
              (List.filter (fun r -> r >= 0) [ st.reg_of.(v); st.reg2_of.(v) ])
          in
          let targets =
            List.filteri (fun k _ -> k < List.length exposed) (List.filter free allocatable)
          in
          if List.compare_lengths targets exposed = 0 then List.iter2 move exposed targets
          else if preserved = [] then write_home st v
          else if not st.clean.(v) then
            List.iter
              (fun r ->
                let off = slot st v + (8 * st.reg_lane.(r)) in
                emit st (Minst.St { src = r; base = sp st; off; size = 8 }))
              exposed
        end)
      allocatable
  in
  keep ~dirty:true;
  keep ~dirty:false

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
      st.fused_cond
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
