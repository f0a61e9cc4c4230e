(** The virtual machine: decodes registered code blobs once, then executes
    them with a deterministic cycle model (see DESIGN.md).

    Address space:
    - [0 .. memory size): linear data memory (tables, heap, GOTs, stack)
    - [code_base ..): registered code blobs
    - [runtime_base ..): runtime functions, one slot of 8 bytes each
    - [sentinel]: the initial return address; reaching it ends execution.

    Execution-time measurement is the [cycles] counter; runtime functions
    charge their own work via {!charge}. *)

exception Trap of string

let code_base = 0x100_0000_0000
let runtime_base = 0x7F00_0000_0000
let sentinel = 0x7FFF_0000_0000

(** A registered code blob, decoded once at registration. Besides the
    instructions, registration precomputes everything the execute loop
    would otherwise redo per executed instruction: each instruction's
    cycle cost, the byte offset just past it (return addresses) and, for
    [Jmp]/[Jcc]/[Call_rel], the index of the instruction it lands on. *)
type code_mod = {
  cm_base : int;
  cm_size : int;
  cm_insts : Minst.t array;
  cm_off2idx : int array;  (** byte offset -> instruction index, or -1 *)
  cm_cost : int array;  (** simulated cycles of each instruction *)
  cm_next : int array;  (** byte offset just past each instruction *)
  cm_target : int array;
      (** resolved branch target index; -1 when the instruction is not a
          direct branch, or its target is not an instruction start of this
          blob (the branch then resolves — and traps — only when taken) *)
}

(* Matches no address: the initial [last_mod] of every context. *)
let no_mod =
  {
    cm_base = 0;
    cm_size = 0;
    cm_insts = [||];
    cm_off2idx = [||];
    cm_cost = [||];
    cm_next = [||];
    cm_target = [||];
  }

(** Code + runtime registries shared by every execution context of one
    virtual machine. All mutation happens under [reg_mu]; the hot read
    paths ([find_mod], runtime dispatch) read the mutable fields without
    the lock — they only ever chase addresses that were published to them
    through a mutex (the caller obtained the module through the code cache
    or compiled it itself), which establishes the happens-before edge.
    [code_gen] bumps on every release so per-context [last_mod] caches
    cannot resurrect a module whose span was recycled by another domain. *)
type shared = {
  mutable mods : code_mod list;
  mutable next_code_base : int;
  free_spans : (int, int list) Hashtbl.t;  (** span size -> free bases *)
  poisoned : (int, int) Hashtbl.t;  (** freed base -> span, until reused *)
  mutable live_code : int;  (** bytes of code in live regions *)
  mutable peak_code : int;  (** high-water mark of [live_code] *)
  mutable freed_code : int;  (** cumulative bytes released *)
  mutable code_gen : int;  (** bumped by every release (cache invalidation) *)
  mutable runtime : (t -> unit) array;
  mutable runtime_names : string array;
  mutable free_runtime : int list;  (** recyclable runtime slots *)
  reg_mu : Mutex.t;  (** guards every mutation of this record *)
  layout_mu : Mutex.t;  (** see {!with_layout_lock} *)
}

and t = {
  target : Target.t;
  mem : Memory.t;
  regs : Bytes.t;
      (** the register file, 8 native-endian bytes per register: writes
          store raw words instead of allocating boxed [int64]s *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ovf : bool;
  mutable cycles : int;
  mutable icount : int;
  mutable fuel : int;  (** max instructions per [call]; <0 = unlimited *)
  stack_top : int;  (** where [call] plants sp — per context, so domains
                        executing concurrently never share a stack *)
  stack_base : int;
      (** the carved stack of a {!context}; -1 for the primary context,
          whose stack is the top of memory *)
  mutable released : bool;  (** {!release_context} ran *)
  shared : shared;
  mutable last_mod : code_mod;  (** {!no_mod} when nothing is cached *)
  mutable last_gen : int;  (** [shared.code_gen] when [last_mod] was cached *)
}

let num_regs = 33

let create ?(mem_size = 256 * 1024 * 1024) target =
  let mem = Memory.create mem_size in
  {
    target;
    mem;
    regs = Bytes.make (8 * num_regs) '\000';
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    cycles = 0;
    icount = 0;
    fuel = -1;
    stack_top = mem_size - 64;
    stack_base = -1;
    released = false;
    shared =
      {
        mods = [];
        next_code_base = code_base;
        free_spans = Hashtbl.create 8;
        poisoned = Hashtbl.create 8;
        live_code = 0;
        peak_code = 0;
        freed_code = 0;
        code_gen = 0;
        runtime = [||];
        runtime_names = [||];
        free_runtime = [];
        reg_mu = Mutex.create ();
        layout_mu = Mutex.create ();
      };
    last_mod = no_mod;
    last_gen = 0;
  }

(** A fresh execution context over the same machine: shares the linear
    memory and the code/runtime registries, but owns its registers, flags,
    cycle/instruction counters and fuel. This is what lets one worker
    domain execute a query while another compiles or executes elsewhere —
    the virtual machine becomes one "core" per context over shared memory
    and a shared code segment. The context's stack is carved out of linear
    memory; give it back with {!release_context} once the context is done. *)
(* Stack carved out of linear memory for each additional context; the
   primary context keeps the historical top-of-memory stack. *)
let context_stack_bytes = 256 * 1024

let context t =
  (* the stack outlives any query the context will run, so it must not be
     recorded into (and later freed by) an active allocation scope *)
  let base =
    Memory.unscoped (fun () -> Memory.alloc t.mem ~align:16 context_stack_bytes)
  in
  {
    target = t.target;
    mem = t.mem;
    regs = Bytes.make (8 * num_regs) '\000';
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    cycles = 0;
    icount = 0;
    fuel = t.fuel;
    stack_top = base + context_stack_bytes - 64;
    stack_base = base;
    released = false;
    shared = t.shared;
    last_mod = no_mod;
    last_gen = 0;
  }

(** Free the stack of a context made by {!context}; the context must not
    run again. Raises [Invalid_argument] on the primary context (its stack
    is not an allocation) and on a double release. *)
let release_context t =
  if t.stack_base < 0 then
    invalid_arg "Emu.release_context: the primary context owns no carved stack";
  if t.released then invalid_arg "Emu.release_context: context already released";
  t.released <- true;
  Memory.free t.mem ~addr:t.stack_base ~size:context_stack_bytes ~align:16

(** [with_layout_lock t f] runs [f] holding the machine's code-layout lock.
    A JIT linker must predict the address a blob will get
    ({!next_code_addr}) before applying relocations and registering it,
    while any other registration or disposal moves that prediction — so
    the predict-link-register window, every bare {!register_code} from a
    position-independent back-end, and every dispose sequence take this
    lock to be mutually atomic. Compilation proper (IR, isel, emission)
    runs outside it, which is what lets worker domains compile
    concurrently. Individual registry operations take the finer [reg_mu]
    internally; the two locks never nest the other way around. *)
let with_layout_lock t f = Mutex.protect t.shared.layout_mu f

let memory t = t.mem
let target_of t = t.target
let cycles t = t.cycles
let instructions_executed t = t.icount
let reset_counters t =
  t.cycles <- 0;
  t.icount <- 0

let charge t c = t.cycles <- t.cycles + c

(** Install the runtime function table (index = slot). *)
let set_runtime t fns names =
  Mutex.protect t.shared.reg_mu (fun () ->
      t.shared.runtime <- fns;
      t.shared.runtime_names <- names)

(** Append a host function (e.g. an interpreted query function) and return
    its callable address. Released slots ({!remove_runtime}) are reused
    before the table grows. *)
let add_runtime t name fn =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      match s.free_runtime with
      | idx :: rest ->
          s.free_runtime <- rest;
          (* copy-on-write: published arrays are never mutated in place, so
             lock-free dispatch reads a consistent table *)
          let fns = Array.copy s.runtime and names = Array.copy s.runtime_names in
          fns.(idx) <- fn;
          names.(idx) <- name;
          s.runtime <- fns;
          s.runtime_names <- names;
          Int64.of_int (runtime_base + (8 * idx))
      | [] ->
          let idx = Array.length s.runtime in
          s.runtime <- Array.append s.runtime [| fn |];
          s.runtime_names <- Array.append s.runtime_names [| name |];
          Int64.of_int (runtime_base + (8 * idx)))

let runtime_addr idx = Int64.of_int (runtime_base + (8 * idx))

let is_runtime_addr (a : int) = a >= runtime_base && a < sentinel

(** Release a host-function slot obtained from {!add_runtime}: the slot is
    poisoned (calls trap) and recycled by the next [add_runtime]. *)
let remove_runtime t (addr : int64) =
  let a = Int64.to_int addr in
  if not (is_runtime_addr a) then
    invalid_arg "Emu.remove_runtime: not a runtime address";
  let idx = (a - runtime_base) / 8 in
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      if idx >= Array.length s.runtime then
        invalid_arg "Emu.remove_runtime: slot was never allocated";
      if List.mem idx s.free_runtime then
        invalid_arg "Emu.remove_runtime: slot already released";
      let fns = Array.copy s.runtime and names = Array.copy s.runtime_names in
      fns.(idx) <-
        (fun _ ->
          raise (Trap (Printf.sprintf "use-after-free runtime slot %d" idx)));
      names.(idx) <- "<freed>";
      s.runtime <- fns;
      s.runtime_names <- names;
      s.free_runtime <- idx :: s.free_runtime)

(* ---------------- cost model ---------------- *)

let cost (i : Minst.t) =
  match i with
  | Nop -> 0
  | Mov_rr _ | Mov_ri _ | Movz _ | Movk _ -> 1
  | Alu_rr (a, _, _) | Alu_ri (a, _, _) | Alu_rrr (a, _, _, _) | Alu_rri (a, _, _, _)
    -> (
      match a with Mul -> 3 | _ -> 1)
  | Cmp_rr _ | Cmp_ri _ -> 1
  | Ld _ -> 2
  | St _ -> 2
  | Lea _ -> 1
  | Ext _ -> 1
  | Mul_wide _ | Mul_hi _ -> 4
  | Div _ | Div_rrr _ -> 20
  | Msub _ -> 3
  | Crc32_rr _ | Crc32_rrr _ -> 1
  | Setcc _ | Csel _ -> 1
  | Jmp _ -> 1
  | Jcc _ -> 1
  | Jmp_ind _ -> 2
  | Jmp_mem _ -> 3
  | Call_rel _ -> 2
  | Call_ind _ -> 3
  | Ret -> 2
  | Falu_rr (f, _, _) | Falu_rrr (f, _, _, _) -> (
      match f with Fdiv -> 15 | Fmul -> 4 | _ -> 3)
  | Fcmp_rr _ -> 2
  | Cvt_si2f _ | Cvt_f2si _ -> 4
  | Brk _ -> 0

let runtime_dispatch_cost = 12

(** Round [n] up to the 4 KiB page granule of the code allocator. Both
    fresh allocation and free-list recycling reserve whole pages, so two
    code blobs never share a page and a released span can be handed out
    again verbatim. *)
let page_size = 0x1000
let page_align n = (n + (page_size - 1)) land lnot (page_size - 1)

(* Pop a free span of exactly [span] bytes, if any. Caller holds [reg_mu]. *)
let take_free_span s span =
  match Hashtbl.find_opt s.free_spans span with
  | Some (base :: rest) ->
      if rest = [] then Hashtbl.remove s.free_spans span
      else Hashtbl.replace s.free_spans span rest;
      Hashtbl.remove s.poisoned base;
      Some base
  | Some [] | None -> None

(** Address the next registered code blob of [size] bytes will get (used by
    JIT linkers that must know final addresses before applying
    relocations). With recycling the answer depends on the blob size: a
    free span of the matching size class is reused before the bump pointer
    advances. Callers that rely on the prediction must hold
    {!with_layout_lock} across predict-link-register. *)
let next_code_addr t ~size =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      match Hashtbl.find_opt s.free_spans (page_align size) with
      | Some (base :: _) -> base
      | Some [] | None -> s.next_code_base)

(** Register a code blob; returns a {!Code_region.t} ownership handle whose
    [base] is the blob's first address. The address range comes from the
    size-class free lists when a released span of the same class exists,
    otherwise from the bump pointer. *)
let register_code t (code : bytes) =
  let insts, off2idx = Asm.decode_all t.target code in
  let size = Bytes.length code in
  let n = Array.length insts in
  let next = Array.make n size in
  for off = 1 to size - 1 do
    let idx = off2idx.(off) in
    if idx > 0 then next.(idx - 1) <- off
  done;
  let costs = Array.make n 0 and target = Array.make n (-1) in
  for i = 0 to n - 1 do
    costs.(i) <- cost insts.(i);
    match insts.(i) with
    | Minst.Jmp off | Jcc (_, off) | Call_rel off ->
        if off >= 0 && off < size then target.(i) <- off2idx.(off)
    | _ -> ()
  done;
  let span = page_align size in
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      let base =
        match take_free_span s span with
        | Some base -> base
        | None ->
            let base = s.next_code_base in
            s.next_code_base <- base + span;
            base
      in
      let m =
        {
          cm_base = base;
          cm_size = size;
          cm_insts = insts;
          cm_off2idx = off2idx;
          cm_cost = costs;
          cm_next = next;
          cm_target = target;
        }
      in
      s.mods <- m :: s.mods;
      s.live_code <- s.live_code + size;
      if s.live_code > s.peak_code then s.peak_code <- s.live_code;
      { Code_region.cr_base = base; cr_size = size; cr_span = span; cr_live = true })

(** Release a code region: the module disappears from the address space,
    the span is poisoned (fetches trap with "use-after-free code region")
    and queued for reuse by same-sized registrations. Raises
    [Invalid_argument] on double release. *)
let release_code t (r : Code_region.t) =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      if not r.Code_region.cr_live then
        invalid_arg "Emu.release_code: region already released";
      r.Code_region.cr_live <- false;
      let base = r.Code_region.cr_base and span = r.Code_region.cr_span in
      s.mods <- List.filter (fun m -> m.cm_base <> base) s.mods;
      (* every context's [last_mod] cache dies with the generation bump *)
      s.code_gen <- s.code_gen + 1;
      s.live_code <- s.live_code - r.Code_region.cr_size;
      s.freed_code <- s.freed_code + r.Code_region.cr_size;
      if span > 0 then begin
        Hashtbl.replace s.poisoned base span;
        let bases =
          Option.value ~default:[] (Hashtbl.find_opt s.free_spans span)
        in
        Hashtbl.replace s.free_spans span (base :: bases)
      end)

let live_code_bytes t = t.shared.live_code
let peak_code_bytes t = t.shared.peak_code
let freed_code_bytes t = t.shared.freed_code

let find_mod t addr =
  let s = t.shared in
  let m = t.last_mod in
  if t.last_gen = s.code_gen && addr >= m.cm_base && addr < m.cm_base + m.cm_size
  then m
  else begin
    (* snapshot the generation before the walk: a concurrent release
       invalidates the cache entry we are about to write, not keep it *)
    let gen = s.code_gen in
    match
      List.find_opt
        (fun m -> addr >= m.cm_base && addr < m.cm_base + m.cm_size)
        s.mods
    with
    | Some m ->
        t.last_mod <- m;
        t.last_gen <- gen;
        m
    | None ->
        Mutex.protect s.reg_mu (fun () ->
            Hashtbl.iter
              (fun base span ->
                if addr >= base && addr < base + span then
                  raise
                    (Trap
                       (Printf.sprintf "use-after-free code region at 0x%x" addr)))
              s.poisoned);
        raise (Trap (Printf.sprintf "jump to unmapped address 0x%x" addr))
  end

let idx_of (m : code_mod) addr =
  let i = m.cm_off2idx.(addr - m.cm_base) in
  if i < 0 then
    raise (Trap (Printf.sprintf "jump into middle of instruction at 0x%x" addr));
  i

(* ---------------- hot accessors ----------------

   Everything the execute loop calls per instruction is defined here and
   inlined into it, so register values stay unboxed [int64]s from read to
   write. Library modules are compiled with [-opaque] in dune's dev profile,
   so calls into {!Memory} or {!Qcomp_support.I128} could not be inlined:
   each would box its [int64] arguments and result. The memory accessors
   below are copies of {!Memory.load}/{!Memory.store} with the same bounds
   check and the same {!Memory.Fault} messages. *)

let[@inline] reg t r = Bytes.get_int64_ne t.regs (r lsl 3)
let[@inline] set_reg t r v = Bytes.set_int64_ne t.regs (r lsl 3) v

let[@inline never] access_fault n addr =
  raise (Memory.Fault (Printf.sprintf "access of %d bytes at 0x%x" n addr))

let[@inline] check_access (mem : Memory.t) addr n =
  if addr < Memory.page || addr + n > mem.Memory.size then access_fault n addr

let[@inline] load64 (mem : Memory.t) addr =
  check_access mem addr 8;
  Bytes.get_int64_le mem.Memory.data addr

let[@inline] store64 (mem : Memory.t) addr v =
  check_access mem addr 8;
  Bytes.set_int64_le mem.Memory.data addr v

let[@inline] load (mem : Memory.t) addr size sext =
  check_access mem addr size;
  let d = mem.Memory.data in
  match (size, sext) with
  | 8, _ -> Bytes.get_int64_le d addr
  | 4, false ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le d addr)) 0xFFFFFFFFL
  | 4, true -> Int64.of_int32 (Bytes.get_int32_le d addr)
  | 2, false -> Int64.of_int (Bytes.get_uint16_le d addr)
  | 2, true -> Int64.of_int (Bytes.get_int16_le d addr)
  | 1, false -> Int64.of_int (Bytes.get_uint8 d addr)
  | 1, true -> Int64.of_int (Bytes.get_int8 d addr)
  | _ -> raise (Memory.Fault "bad access size")

let[@inline] store (mem : Memory.t) addr size v =
  check_access mem addr size;
  let d = mem.Memory.data in
  match size with
  | 8 -> Bytes.set_int64_le d addr v
  | 4 -> Bytes.set_int32_le d addr (Int64.to_int32 v)
  | 2 -> Bytes.set_uint16_le d addr (Int64.to_int v land 0xFFFF)
  | 1 -> Bytes.set_uint8 d addr (Int64.to_int v land 0xFF)
  | _ -> raise (Memory.Fault "bad access size")

(* unsigned a < b *)
let[@inline] ult (a : int64) b = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

(* High 64 bits of the 128-bit product, as {!Qcomp_support.I128.umul64_wide}
   and [smul64_wide] compute them. *)
let[@inline] umulh a b =
  let mask32 = 0xFFFF_FFFFL in
  let a0 = Int64.logand a mask32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask32 and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 in
  let p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical p00 32) (Int64.logand p01 mask32))
      (Int64.logand p10 mask32)
  in
  Int64.add
    (Int64.add (Int64.mul a1 b1) (Int64.shift_right_logical p01 32))
    (Int64.add (Int64.shift_right_logical p10 32) (Int64.shift_right_logical mid 32))

let[@inline] smulh a b =
  let hi = umulh a b in
  let hi = if a < 0L then Int64.sub hi b else hi in
  if b < 0L then Int64.sub hi a else hi

let[@inline] crc32c acc x =
  Int64.of_int
    (Qcomp_support.Hashes.crc32c_words
       (Int64.to_int acc land 0xFFFF_FFFF)
       ~lo:(Int64.to_int x land 0xFFFF_FFFF)
       ~hi:(Int64.to_int (Int64.shift_right_logical x 32)))

(* ---------------- flags ---------------- *)

let[@inline] set_zs t (r : int64) =
  t.zf <- r = 0L;
  t.sf <- r < 0L

let[@inline] flags_add t a b r =
  set_zs t r;
  t.cf <- ult r a;
  t.ovf <- Int64.logand (Int64.logxor a (Int64.lognot b)) (Int64.logxor a r) < 0L

let[@inline] flags_sub t a b r =
  set_zs t r;
  t.cf <- ult a b;
  t.ovf <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L

let[@inline] flags_logic t r =
  set_zs t r;
  t.cf <- false;
  t.ovf <- false

let[@inline] cond_true t (c : Minst.cond) =
  match c with
  | Eq -> t.zf
  | Ne -> not t.zf
  | Slt -> t.sf <> t.ovf
  | Sle -> t.zf || t.sf <> t.ovf
  | Sgt -> (not t.zf) && t.sf = t.ovf
  | Sge -> t.sf = t.ovf
  | Ult -> t.cf
  | Ule -> t.cf || t.zf
  | Ugt -> (not t.cf) && not t.zf
  | Uge -> not t.cf
  | Ov -> t.ovf
  | Noov -> not t.ovf

(* ---------------- execution ---------------- *)

(* [d <- a op b], setting the flags [op] defines. *)
let[@inline] alu t (op : Minst.alu) d a b =
  match op with
  | Add ->
      let r = Int64.add a b in
      flags_add t a b r;
      set_reg t d r
  | Sub ->
      let r = Int64.sub a b in
      flags_sub t a b r;
      set_reg t d r
  | Adc ->
      let cin = if t.cf then 1L else 0L in
      let ab = Int64.add a b in
      let r = Int64.add ab cin in
      set_zs t r;
      t.cf <- ult ab a || ult r ab;
      (* signed overflow (valid with carry-in): operands agree, result differs *)
      t.ovf <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
      set_reg t d r
  | Sbb ->
      let cin = if t.cf then 1L else 0L in
      let r = Int64.sub (Int64.sub a b) cin in
      let borrow =
        ult a b || (a = b && cin = 1L) || ult (Int64.sub a b) cin
      in
      set_zs t r;
      t.cf <- borrow;
      t.ovf <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
      set_reg t d r
  | And ->
      let r = Int64.logand a b in
      flags_logic t r;
      set_reg t d r
  | Or ->
      let r = Int64.logor a b in
      flags_logic t r;
      set_reg t d r
  | Xor ->
      let r = Int64.logxor a b in
      flags_logic t r;
      set_reg t d r
  | Mul ->
      let r = Int64.mul a b in
      set_zs t r;
      let ovf = smulh a b <> Int64.shift_right r 63 in
      t.cf <- ovf;
      t.ovf <- ovf;
      set_reg t d r
  | Shl ->
      let r = Int64.shift_left a (Int64.to_int b land 63) in
      set_zs t r;
      set_reg t d r
  | Shr ->
      let r = Int64.shift_right_logical a (Int64.to_int b land 63) in
      set_zs t r;
      set_reg t d r
  | Sar ->
      let r = Int64.shift_right a (Int64.to_int b land 63) in
      set_zs t r;
      set_reg t d r
  | Ror ->
      let n = Int64.to_int b land 63 in
      let r =
        if n = 0 then a
        else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))
      in
      set_zs t r;
      set_reg t d r

let[@inline] ext v ~bits ~signed =
  match (bits, signed) with
  | 8, false -> Int64.logand v 0xFFL
  | 8, true -> Int64.shift_right (Int64.shift_left v 56) 56
  | 16, false -> Int64.logand v 0xFFFFL
  | 16, true -> Int64.shift_right (Int64.shift_left v 48) 48
  | 32, false -> Int64.logand v 0xFFFFFFFFL
  | 32, true -> Int64.shift_right (Int64.shift_left v 32) 32
  | 1, false -> Int64.logand v 1L
  | 1, true -> Int64.shift_right (Int64.shift_left v 63) 63
  | _ -> raise (Trap "bad extension width")

let[@inline] falu (op : Minst.falu) a b =
  let a = Int64.float_of_bits a and b = Int64.float_of_bits b in
  Int64.bits_of_float
    (match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b)

(* x64 return addresses live on the stack, A64 ones in the link register *)
let[@inline] pop_ret t =
  if t.target.Target.arch = Target.X64 then begin
    let sp = t.target.Target.sp in
    let ra = load64 t.mem (Int64.to_int (reg t sp)) in
    set_reg t sp (Int64.add (reg t sp) 8L);
    ra
  end
  else reg t Target.lr

let[@inline] push_ret t ra =
  if t.target.Target.arch = Target.X64 then begin
    let sp = t.target.Target.sp in
    set_reg t sp (Int64.sub (reg t sp) 8L);
    store64 t.mem (Int64.to_int (reg t sp)) ra
  end
  else set_reg t Target.lr ra

(* Transfer control to an arbitrary address: code, runtime or sentinel.
   Returns the instruction index to continue at, in the module [find_mod]
   just left in [t.last_mod], or -1 once control reaches the sentinel. *)
let rec goto t (a : int) =
  if a = sentinel then -1
  else if is_runtime_addr a then begin
    (* Landing in the runtime via a tail jump (PLT): execute the callee,
       then return to the caller's return address. *)
    let ra = Int64.to_int (pop_ret t) in
    dispatch_runtime t a;
    if ra = sentinel then -1 else idx_of (find_mod t ra) ra
  end
  else idx_of (find_mod t a) a

(** Run starting at [addr] until control returns to the sentinel.
    Reentrant: runtime functions may use {!call_generated}. Each executed
    instruction reads its cost and branch target from the module's
    registration-time tables and allocates nothing. *)
and run_at t addr =
  let m = ref (find_mod t addr) in
  let ip = ref (idx_of !m addr) in
  while !ip >= 0 do
    let cm = !m in
    let i = !ip in
    if i >= Array.length cm.cm_insts then raise (Trap "fell off end of code");
    t.cycles <- t.cycles + Array.unsafe_get cm.cm_cost i;
    t.icount <- t.icount + 1;
    if t.fuel >= 0 && t.icount > t.fuel then raise (Trap "fuel exhausted");
    ip := i + 1;
    match Array.unsafe_get cm.cm_insts i with
    | Nop -> ()
    | Mov_rr (d, s) -> set_reg t d (reg t s)
    | Mov_ri (d, v) -> set_reg t d v
    | Movz (d, imm, sh) -> set_reg t d (Int64.shift_left (Int64.of_int imm) (16 * sh))
    | Movk (d, imm, sh) ->
        let mask = Int64.shift_left 0xFFFFL (16 * sh) in
        set_reg t d
          (Int64.logor
             (Int64.logand (reg t d) (Int64.lognot mask))
             (Int64.shift_left (Int64.of_int imm) (16 * sh)))
    | Alu_rr (op, d, s) -> alu t op d (reg t d) (reg t s)
    | Alu_ri (op, d, v) -> alu t op d (reg t d) v
    | Alu_rrr (op, d, a, b) -> alu t op d (reg t a) (reg t b)
    | Alu_rri (op, d, a, v) -> alu t op d (reg t a) v
    | Cmp_rr (a, b) ->
        let a = reg t a and b = reg t b in
        flags_sub t a b (Int64.sub a b)
    | Cmp_ri (a, v) ->
        let a = reg t a in
        flags_sub t a v (Int64.sub a v)
    | Ld { dst; base; off; size; sext } ->
        set_reg t dst (load t.mem (Int64.to_int (reg t base) + off) size sext)
    | St { src; base; off; size } ->
        store t.mem (Int64.to_int (reg t base) + off) size (reg t src)
    | Lea { dst; base; index; scale; off } ->
        let v = Int64.add (reg t base) (Int64.of_int off) in
        set_reg t dst
          (if index >= 0 then Int64.add v (Int64.mul (reg t index) (Int64.of_int scale))
           else v)
    | Ext { dst; src; bits; signed } -> set_reg t dst (ext (reg t src) ~bits ~signed)
    | Mul_wide { signed; src } ->
        let a = reg t 0 and b = reg t src in
        set_reg t 0 (Int64.mul a b);
        set_reg t 2 (if signed then smulh a b else umulh a b)
    | Mul_hi { signed; dst; a; b } ->
        let a = reg t a and b = reg t b in
        set_reg t dst (if signed then smulh a b else umulh a b)
    | Div { signed; src } ->
        let d = reg t src in
        if d = 0L then raise (Trap "integer division by zero");
        let a = reg t 0 in
        if signed then begin
          if a = Int64.min_int && d = -1L then raise (Trap "integer division overflow");
          set_reg t 0 (Int64.div a d);
          set_reg t 2 (Int64.rem a d)
        end
        else begin
          set_reg t 0 (Int64.unsigned_div a d);
          set_reg t 2 (Int64.unsigned_rem a d)
        end
    | Div_rrr { signed; dst; a; b } ->
        (* AArch64 semantics: division by zero yields zero. *)
        let bv = reg t b in
        let av = reg t a in
        set_reg t dst
          (if bv = 0L then 0L
           else if signed then
             if av = Int64.min_int && bv = -1L then Int64.min_int else Int64.div av bv
           else Int64.unsigned_div av bv)
    | Msub { dst; a; b; c } ->
        set_reg t dst (Int64.sub (reg t c) (Int64.mul (reg t a) (reg t b)))
    | Crc32_rr (d, s) -> set_reg t d (crc32c (reg t d) (reg t s))
    | Crc32_rrr (d, a, b) -> set_reg t d (crc32c (reg t a) (reg t b))
    | Setcc (c, d) -> set_reg t d (if cond_true t c then 1L else 0L)
    | Csel { cond; dst; a; b } ->
        set_reg t dst (if cond_true t cond then reg t a else reg t b)
    | Jmp off ->
        let j = Array.unsafe_get cm.cm_target i in
        ip := if j >= 0 then j else idx_of cm (cm.cm_base + off)
    | Jcc (c, off) ->
        if cond_true t c then begin
          let j = Array.unsafe_get cm.cm_target i in
          ip := if j >= 0 then j else idx_of cm (cm.cm_base + off)
        end
    | Jmp_ind r ->
        ip := goto t (Int64.to_int (reg t r));
        m := t.last_mod
    | Jmp_mem slot ->
        ip := goto t (Int64.to_int (load64 t.mem (Int64.to_int slot)));
        m := t.last_mod
    | Call_rel off ->
        push_ret t (Int64.of_int (cm.cm_base + Array.unsafe_get cm.cm_next i));
        let j = Array.unsafe_get cm.cm_target i in
        if j >= 0 then ip := j
        else begin
          ip := goto t (cm.cm_base + off);
          m := t.last_mod
        end
    | Call_ind r ->
        push_ret t (Int64.of_int (cm.cm_base + Array.unsafe_get cm.cm_next i));
        ip := goto t (Int64.to_int (reg t r));
        m := t.last_mod
    | Ret ->
        ip := goto t (Int64.to_int (pop_ret t));
        m := t.last_mod
    | Falu_rr (op, d, s) -> set_reg t d (falu op (reg t d) (reg t s))
    | Falu_rrr (op, d, x, y) -> set_reg t d (falu op (reg t x) (reg t y))
    | Fcmp_rr (x, y) ->
        let a = Int64.float_of_bits (reg t x) and b = Int64.float_of_bits (reg t y) in
        t.zf <- a = b;
        t.sf <- a < b;
        t.ovf <- false;
        t.cf <- a < b
    | Cvt_si2f (d, s) -> set_reg t d (Int64.bits_of_float (Int64.to_float (reg t s)))
    | Cvt_f2si (d, s) -> set_reg t d (Int64.of_float (Int64.float_of_bits (reg t s)))
    | Brk code -> raise (Trap (Printf.sprintf "brk #%d" code))
  done

and dispatch_runtime t addr =
  let idx = (addr - runtime_base) / 8 in
  (* snapshot the array: [add_runtime] replaces it wholesale, never mutates
     a published one, so a plain read is race-free *)
  let runtime = t.shared.runtime in
  if idx < 0 || idx >= Array.length runtime then
    raise (Trap (Printf.sprintf "call to bad runtime slot %d" idx));
  t.cycles <- t.cycles + runtime_dispatch_cost;
  runtime.(idx) t

(** Call generated code from the host (or from a runtime function):
    standard calling convention, returns the two return registers. *)
and call_generated t ~addr ~(args : int64 array) =
  let tgt = t.target in
  if Array.length args > Array.length tgt.Target.arg_regs then
    invalid_arg "call_generated: too many register arguments";
  Array.iteri (fun k v -> set_reg t tgt.Target.arg_regs.(k) v) args;
  if is_runtime_addr addr then dispatch_runtime t addr
  else begin
    push_ret t (Int64.of_int sentinel);
    run_at t addr
  end;
  (reg t tgt.Target.ret_regs.(0), reg t tgt.Target.ret_regs.(1))

(** Top-level entry: sets up a fresh stack then calls [addr]. *)
let call t ~addr ~args =
  if t.released then invalid_arg "Emu.call: context released";
  let sp0 = t.stack_top land lnot 15 in
  set_reg t t.target.Target.sp (Int64.of_int sp0);
  call_generated t ~addr ~args

let arg_reg t k = t.target.Target.arg_regs.(k)

(* the public accessors, out of line: host callers see plain functions *)
let reg t r = reg t r
let set_reg t r v = set_reg t r v

(** Decoded instructions of the module containing [addr] (debugging aid). *)
let decoded_at t addr =
  let m = find_mod t addr in
  (m.cm_base, m.cm_insts)
