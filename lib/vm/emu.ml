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

(** A registered code blob, decoded once at registration into a flat
    instruction table (see "the instruction table" below) and translated
    into threaded closures on its first entry (see "threaded code"). *)
type code_mod = {
  cm_base : int;
  cm_size : int;
  cm_table : Bytes.t;
      (** one 16-byte record per instruction, in address order, then an
          [End] record *)
  cm_map : Bytes.t;
      (** byte offset -> instruction index, a native-endian int32 per code
          byte; -1 where no instruction starts *)
  cm_chains : chains Atomic.t;
      (** the module as threaded code; {!untranslated} until the module is
          first entered *)
}

(** A module translated into threaded code (see "threaded code"). Each
    array has an element per instruction index and one for the [End]
    record. *)
and chains = {
  ch_body : (t -> unit) array;  (** runs the instruction and the rest of its chain *)
  ch_cycles : int array;  (** cycles from the index to the end of its chain *)
  ch_insts : int array;  (** instructions from the index to the end of its chain *)
  ch_fuel_stop : t -> int -> unit;  (** entered at an index, would cross fuel *)
}

(** Code + runtime registries shared by every execution context of one
    virtual machine. All mutation happens under [reg_mu]; the hot read
    paths ([find_mod], runtime dispatch) read the mutable fields without
    the lock — they only ever chase addresses that were published to them
    through a mutex (the caller obtained the module through the code cache
    or compiled it itself), which establishes the happens-before edge. A
    module's translation is published through its own [Atomic].
    [code_gen] bumps on every release so per-context [last_mod] caches
    cannot resurrect a module whose span was recycled by another domain. *)
and shared = {
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

let untranslated =
  { ch_body = [||]; ch_cycles = [||]; ch_insts = [||]; ch_fuel_stop = (fun _ _ -> ()) }

(* Matches no address: the initial [last_mod] of every context. *)
let no_mod =
  {
    cm_base = 0;
    cm_size = 0;
    cm_table = Bytes.empty;
    cm_map = Bytes.empty;
    cm_chains = Atomic.make untranslated;
  }

let num_regs = 33

(* A cell past the addressable registers that always reads zero: the base
   of an address that has none. No encoded register field can name it (the
   loader rejects registers from [num_regs] on), so nothing writes it. *)
let zero_reg = num_regs

let create ?(mem_size = 256 * 1024 * 1024) target =
  let mem = Memory.create mem_size in
  {
    target;
    mem;
    regs = Bytes.make (8 * (num_regs + 1)) '\000';
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
    regs = Bytes.make (8 * (num_regs + 1)) '\000';
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

(* ---------------- the instruction table ----------------

   [register_code] decodes a blob once into a flat [Bytes] table of
   16-byte records, one per instruction in address order, followed by an
   [End] record. Nothing in it is boxed: building it allocates the table
   (doubled when an x64 blob holds more instructions than guessed) and an
   offset map per blob, and translation (see "threaded code") reads every
   field straight out of the bytes.

   byte  0      op      specialised opcode ({!op}): the ALU operation,
                        operand kind, access size and sign are part of it
   byte  1      cost    simulated cycles
   bytes 2-5    r0-r3   register fields, validated below {!num_regs} at
                        load; a condition ({!Minst.cond}) sits in r3, a
                        shift count in r1 (Movz/Movk) or r3 (Lea_x, Ldx);
                        an absent base of Lea_x or Ldx is {!zero_reg}
   byte  6      aux     the raw operand byte [decode_all] lifts back:
                        Ext's width/sign mode, Lea's absent index
   bytes 8-15   imm     int64: immediate, displacement, jmp_mem slot or
                        brk code
   Direct branches replace imm with two int32s: bytes 8-11 hold the index
   of the target instruction, bytes 12-15 the target's byte offset from
   the blob start. Calls keep the byte offset just past themselves (the
   return address) in bytes 4-7.

   Field use per opcode (d = destination, a/b = sources):
     Mov_r d s | Mov_i d imm | Movz/Movk d shift imm (pre-shifted)
     <alu>_r d a b | <alu>_i d a imm (x64's two-address forms have a = d)
     Cmp_r a b | Cmp_i a imm | Ld* d base disp | St* src base disp
     Lea_x d base index shift disp | Lea d base disp
     Ldx d base index shift disp (Ldx1 .. Ldx8s)
     Ext* d s | Mulw*/Div* s | Mulh*/Udiv/Sdiv/Msub/Crc/F<op> d a b
     Setcc d cond | Csel d a b cond | Jcc cond | Fcmp a b | Cvt* d s
     Jmp_ind/Call_ind r | Jmp_mem slot | Brk code *)

type op =
  | End  (** past the last instruction: "fell off end of code" *)
  | Nop
  | Mov_r
  | Mov_i
  | Movz
  | Movk
  | Add_r
  | Sub_r
  | Adc_r
  | Sbb_r
  | And_r
  | Or_r
  | Xor_r
  | Mul_r
  | Shl_r
  | Shr_r
  | Sar_r
  | Ror_r
  | Add_i
  | Sub_i
  | Adc_i
  | Sbb_i
  | And_i
  | Or_i
  | Xor_i
  | Mul_i
  | Shl_i
  | Shr_i
  | Sar_i
  | Ror_i
  | Cmp_r
  | Cmp_i
  | Ld1
  | Ld1s
  | Ld2
  | Ld2s
  | Ld4
  | Ld4s
  | Ld8
  | Ld8s
  | St1
  | St2
  | St4
  | St8
  | Lea_x  (** with an index register *)
  | Lea
  | Ldx1  (** loads from [base + index << shift + disp] *)
  | Ldx1s
  | Ldx2
  | Ldx2s
  | Ldx4
  | Ldx4s
  | Ldx8
  | Ldx8s
  | Ext1
  | Ext1s
  | Ext8
  | Ext8s
  | Ext16
  | Ext16s
  | Ext32
  | Ext32s
  | Ext_bad  (** any other width: traps when executed *)
  | Mulw
  | Mulw_s
  | Mulh
  | Mulh_s
  | Div
  | Div_s
  | Udiv
  | Sdiv
  | Msub
  | Crc
  | Setcc
  | Csel
  | Jmp
  | Jcc
  | Call
  | Jmp_far  (** direct branches whose target is no instruction start of *)
  | Jcc_far  (** their own blob: resolved through the address space, *)
  | Call_far  (** and trapped there, only when taken *)
  | Jmp_ind
  | Jmp_mem
  | Call_ind
  | Ret
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcmp
  | Cvt_si2f
  | Cvt_f2si
  | Brk

(* [op] and {!Minst.cond} have constant constructors only, so their values
   are small immediates: a record byte holds one as is. Only the loader
   writes those bytes, always from a value of the right type. *)
external op_of_char : char -> op = "%identity"
external char_of_op : op -> char = "%identity"
external cond_of_char : char -> Minst.cond = "%identity"
external char_of_cond : Minst.cond -> char = "%identity"

let cost_of = function
  | End | Nop | Brk -> 0
  | Mov_r | Mov_i | Movz | Movk -> 1
  | Mul_r | Mul_i -> 3
  | Add_r | Sub_r | Adc_r | Sbb_r | And_r | Or_r | Xor_r | Shl_r | Shr_r | Sar_r
  | Ror_r | Add_i | Sub_i | Adc_i | Sbb_i | And_i | Or_i | Xor_i | Shl_i | Shr_i
  | Sar_i | Ror_i ->
      1
  | Cmp_r | Cmp_i -> 1
  | Ld1 | Ld1s | Ld2 | Ld2s | Ld4 | Ld4s | Ld8 | Ld8s | St1 | St2 | St4 | St8 -> 2
  (* the address unit computes base + index * scale + disp inside the load *)
  | Ldx1 | Ldx1s | Ldx2 | Ldx2s | Ldx4 | Ldx4s | Ldx8 | Ldx8s -> 2
  | Lea_x | Lea -> 1
  | Ext1 | Ext1s | Ext8 | Ext8s | Ext16 | Ext16s | Ext32 | Ext32s | Ext_bad -> 1
  | Mulw | Mulw_s | Mulh | Mulh_s -> 4
  | Div | Div_s | Udiv | Sdiv -> 20
  | Msub -> 3
  | Crc | Setcc | Csel -> 1
  | Jmp | Jcc | Jmp_far | Jcc_far -> 1
  | Jmp_ind -> 2
  | Jmp_mem -> 3
  | Call | Call_far | Ret -> 2
  | Call_ind -> 3
  | Fadd | Fsub -> 3
  | Fmul -> 4
  | Fdiv -> 15
  | Fcmp -> 2
  | Cvt_si2f | Cvt_f2si -> 4

let runtime_dispatch_cost = 12

let alu_r : Minst.alu -> op = function
  | Add -> Add_r
  | Sub -> Sub_r
  | Adc -> Adc_r
  | Sbb -> Sbb_r
  | And -> And_r
  | Or -> Or_r
  | Xor -> Xor_r
  | Mul -> Mul_r
  | Shl -> Shl_r
  | Shr -> Shr_r
  | Sar -> Sar_r
  | Ror -> Ror_r

let alu_i : Minst.alu -> op = function
  | Add -> Add_i
  | Sub -> Sub_i
  | Adc -> Adc_i
  | Sbb -> Sbb_i
  | And -> And_i
  | Or -> Or_i
  | Xor -> Xor_i
  | Mul -> Mul_i
  | Shl -> Shl_i
  | Shr -> Shr_i
  | Sar -> Sar_i
  | Ror -> Ror_i

let falu_op : Minst.falu -> op = function
  | Fadd -> Fadd
  | Fsub -> Fsub
  | Fmul -> Fmul
  | Fdiv -> Fdiv

let ext_op mode =
  match (mode land 0x7F, mode land 0x80 <> 0) with
  | 1, false -> Ext1
  | 1, true -> Ext1s
  | 8, false -> Ext8
  | 8, true -> Ext8s
  | 16, false -> Ext16
  | 16, true -> Ext16s
  | 32, false -> Ext32
  | 32, true -> Ext32s
  | _ -> Ext_bad

(* ---------------- loading ---------------- *)

(* One blob being loaded. Each [register_code] makes its own, so compile
   domains can load concurrently. *)
type loader = {
  ld_arch : string;  (** error-message prefix *)
  ld_code : Bytes.t;
  mutable ld_table : Bytes.t;
  mutable ld_n : int;  (** records written *)
  ld_map : Bytes.t;
}

let[@inline never] malformed fmt =
  Printf.ksprintf (fun s -> raise (Asm.Decode_error s)) fmt

let[@inline never] bad_register ld at r0 r1 r2 r3 =
  let r = List.find (fun r -> r >= num_regs) [ r0; r1; r2; r3 ] in
  malformed "%s: register %d out of range at %d" ld.ld_arch r at

let[@inline never] grow ld =
  ld.ld_table <- Bytes.extend ld.ld_table 0 (Bytes.length ld.ld_table)

(* Append the record of the instruction at byte offset [at]. *)
let[@inline] put ld at op r0 r1 r2 r3 ~aux (imm : int64) =
  if r0 >= num_regs || r1 >= num_regs || r2 >= num_regs || r3 >= num_regs then
    bad_register ld at r0 r1 r2 r3;
  let k = ld.ld_n in
  (* keep room for the [End] record *)
  if (k + 2) lsl 4 > Bytes.length ld.ld_table then grow ld;
  let tb = ld.ld_table and p = k lsl 4 in
  (* bytes 0-7 in one store *)
  Bytes.set_int64_le tb p
    (Int64.of_int
       (Char.code (char_of_op op)
       lor (cost_of op lsl 8)
       lor (r0 lsl 16) lor (r1 lsl 24) lor (r2 lsl 32) lor (r3 lsl 40) lor (aux lsl 48)));
  Bytes.set_int64_ne tb (p + 8) imm;
  Bytes.set_int32_ne ld.ld_map (at lsl 2) (Int32.of_int k);
  ld.ld_n <- k + 1

(* A direct branch to byte offset [target]; [load] resolves it. *)
let[@inline] put_branch ld at op ~cond target =
  put ld at op 0 0 0 cond ~aux:0 0L;
  Bytes.set_int32_ne ld.ld_table (((ld.ld_n - 1) lsl 4) + 12) (Int32.of_int target)

(* The instruction just put has no base register: it reads {!zero_reg}. *)
let[@inline] put_no_base ld = Bytes.set ld.ld_table (((ld.ld_n - 1) lsl 4) + 3) (Char.chr zero_reg)

(* The return address of the call just put, as a byte offset. *)
let[@inline] put_ret ld ret =
  Bytes.set_int32_ne ld.ld_table (((ld.ld_n - 1) lsl 4) + 4) (Int32.of_int ret)

let[@inline] u8 b pos = Bytes.get_uint8 b pos
let[@inline] i8 b pos = Bytes.get_int8 b pos
let[@inline] i32 b pos = Int32.to_int (Bytes.get_int32_le b pos)
(* the high and low nibble of the register-pair byte after an x64 opcode *)
let[@inline] hi b at = u8 b (at + 1) lsr 4
let[@inline] lo b at = u8 b (at + 1) land 0xF

let[@inline] need ld pos len =
  if pos + len > Bytes.length ld.ld_code then
    malformed "%s: truncated instruction at %d" ld.ld_arch pos

(* Each target's opcode map read backwards: encoded opcode byte -> the
   record opcode it loads as, [End] for a byte that starts no
   instruction. The record opcode then fixes the operand layout, except
   for the widths and conditions that the opcode byte itself carries.
   [Ext_bad] stands for every extension: its mode byte picks the record
   opcode. *)
let opcode_map entries =
  let t = Bytes.make 256 (char_of_op End) in
  List.iter (fun (code, op) -> Bytes.set t code (char_of_op op)) entries;
  t

let alus base f = List.init 12 (fun c -> (base + c, f (Asm.alu_of_code c)))
let conds base op = List.init 12 (fun c -> (base + c, op))
let falus base = List.init 4 (fun c -> (base + c, falu_op (Asm.falu_of_code c)))
(* Both targets' load opcodes add k to their base: 1 lsl (k land 3)
   bytes, sign-extended when [k land 4]; stores add log2 of the size. *)
let loads base =
  List.mapi (fun k op -> (base + k, op)) [ Ld1; Ld2; Ld4; Ld8; Ld1s; Ld2s; Ld4s; Ld8s ]

let stores base = List.mapi (fun k op -> (base + k, op)) [ St1; St2; St4; St8 ]

let indexed_loads base =
  List.mapi (fun k op -> (base + k, op)) [ Ldx1; Ldx2; Ldx4; Ldx8; Ldx1s; Ldx2s; Ldx4s; Ldx8s ]

let x64_ops =
  opcode_map
    (Asm.
       [
         (xop_nop, Nop); (xop_mov_rr, Mov_r); (xop_mov_ri32, Mov_i); (xop_mov_ri64, Mov_i);
         (xop_cmp_rr, Cmp_r); (xop_cmp_ri, Cmp_i); (xop_lea, Lea_x); (xop_ext, Ext_bad);
         (xop_mulw_u, Mulw); (xop_mulw_s, Mulw_s); (xop_div_u, Div); (xop_div_s, Div_s);
         (xop_crc32, Crc); (xop_jmp, Jmp); (xop_jmp_ind, Jmp_ind); (xop_jmp_mem, Jmp_mem);
         (xop_call_rel, Call); (xop_call_ind, Call_ind); (xop_ret, Ret); (xop_fcmp, Fcmp);
         (xop_cvt_si2f, Cvt_si2f); (xop_cvt_f2si, Cvt_f2si); (xop_brk, Brk);
         (xop_lea_nobase, Lea_x);
       ]
    @ indexed_loads Asm.xop_ldx @ indexed_loads Asm.xop_ldx_nobase
    @ alus Asm.xop_alu_rr alu_r @ alus Asm.xop_alu_ri8 alu_i @ alus Asm.xop_alu_ri32 alu_i
    @ loads Asm.xop_ld @ stores Asm.xop_st @ conds Asm.xop_setcc Setcc
    @ conds Asm.xop_csel Csel @ conds Asm.xop_jcc Jcc @ falus Asm.xop_falu)

let a64_ops =
  opcode_map
    (Asm.
       [
         (aop_nop, Nop); (aop_mov_rr, Mov_r); (aop_cmp_rr, Cmp_r); (aop_cmp_ri, Cmp_i);
         (aop_lea, Lea_x); (aop_ext, Ext_bad); (aop_mulh_u, Mulh); (aop_mulh_s, Mulh_s);
         (aop_div_u, Udiv); (aop_div_s, Sdiv); (aop_msub, Msub); (aop_crc32, Crc);
         (aop_jmp, Jmp); (aop_jmp_ind, Jmp_ind); (aop_call_rel, Call); (aop_call_ind, Call_ind);
         (aop_ret, Ret); (aop_fcmp, Fcmp); (aop_cvt_si2f, Cvt_si2f); (aop_cvt_f2si, Cvt_f2si);
         (aop_brk, Brk);
       ]
    @ List.init 4 (fun sh -> (Asm.aop_movz + sh, Movz))
    @ List.init 4 (fun sh -> (Asm.aop_movk + sh, Movk))
    @ alus Asm.aop_alu_rrr alu_r @ alus Asm.aop_alu_rri alu_i @ loads Asm.aop_ld
    @ indexed_loads Asm.aop_ldx @ stores Asm.aop_st @ conds Asm.aop_setcc Setcc @ conds Asm.aop_csel Csel
    @ conds Asm.aop_jcc Jcc @ falus Asm.aop_falu)

(* The condition of the opcode byte [code] in a block of twelve at [base],
   as the record stores it. *)
let[@inline] cond_field code base = Char.code (char_of_cond (Asm.cond_of_code (code - base)))

let[@inline never] bad_opcode ld code at =
  malformed "%s: bad opcode 0x%02x at %d" ld.ld_arch code at

let load_x64 ld =
  let b = ld.ld_code in
  let size = Bytes.length b in
  let pos = ref 0 in
  while !pos < size do
    let at = !pos in
    let code = u8 b at in
    let op = op_of_char (Bytes.unsafe_get x64_ops code) in
    let len =
      match op with
      | Nop | Ret ->
          put ld at op 0 0 0 0 ~aux:0 0L;
          1
      | Mov_r | Cmp_r | Fcmp | Cvt_si2f | Cvt_f2si ->
          need ld at 2;
          put ld at op (hi b at) (lo b at) 0 0 ~aux:0 0L;
          2
      | Add_r | Sub_r | Adc_r | Sbb_r | And_r | Or_r | Xor_r | Mul_r | Shl_r | Shr_r
      | Sar_r | Ror_r | Crc | Fadd | Fsub | Fmul | Fdiv ->
          (* two-address: d = d op s *)
          need ld at 2;
          let d = hi b at in
          put ld at op d d (lo b at) 0 ~aux:0 0L;
          2
      | Mov_i when code = Asm.xop_mov_ri64 ->
          need ld at 10;
          put ld at op (u8 b (at + 1)) 0 0 0 ~aux:0 (Bytes.get_int64_le b (at + 2));
          10
      | Mov_i | Cmp_i ->
          need ld at 6;
          put ld at op (u8 b (at + 1)) 0 0 0 ~aux:0 (Int64.of_int (i32 b (at + 2)));
          6
      | Add_i | Sub_i | Adc_i | Sbb_i | And_i | Or_i | Xor_i | Mul_i | Shl_i | Shr_i
      | Sar_i | Ror_i ->
          let d = u8 b (at + 1) in
          if code < Asm.xop_alu_ri32 then begin
            need ld at 3;
            put ld at op d d 0 0 ~aux:0 (Int64.of_int (i8 b (at + 2)));
            3
          end
          else begin
            need ld at 6;
            put ld at op d d 0 0 ~aux:0 (Int64.of_int (i32 b (at + 2)));
            6
          end
      | Ld1 | Ld1s | Ld2 | Ld2s | Ld4 | Ld4s | Ld8 | Ld8s | St1 | St2 | St4 | St8 ->
          need ld at 6;
          put ld at op (hi b at) (lo b at) 0 0 ~aux:0 (Int64.of_int (i32 b (at + 2)));
          6
      | Lea_x when code = Asm.xop_lea_nobase ->
          need ld at 8;
          let sc = u8 b (at + 3) in
          if sc > 3 then malformed "x64: bad lea scale %d at %d" sc at;
          put ld at Lea_x (u8 b (at + 1)) 0 (u8 b (at + 2)) sc ~aux:0
            (Int64.of_int (i32 b (at + 4)));
          put_no_base ld;
          8
      | Lea_x ->
          need ld at 8;
          let idx = i8 b (at + 2) and sc = u8 b (at + 3) in
          let off = Int64.of_int (i32 b (at + 4)) in
          if idx < 0 then put ld at Lea (hi b at) (lo b at) 0 0 ~aux:(idx land 0xFF) off
          else begin
            if sc > 3 then malformed "x64: bad lea scale %d at %d" sc at;
            put ld at Lea_x (hi b at) (lo b at) idx sc ~aux:0 off
          end;
          8
      | Ldx1 | Ldx1s | Ldx2 | Ldx2s | Ldx4 | Ldx4s | Ldx8 | Ldx8s ->
          need ld at 8;
          let sc = u8 b (at + 3) and off = Int64.of_int (i32 b (at + 4)) in
          if sc > 3 then malformed "x64: bad load scale %d at %d" sc at;
          if code >= Asm.xop_ldx_nobase then begin
            put ld at op (u8 b (at + 1)) 0 (u8 b (at + 2)) sc ~aux:0 off;
            put_no_base ld
          end
          else put ld at op (hi b at) (lo b at) (u8 b (at + 2)) sc ~aux:0 off;
          8
      | Ext1 | Ext1s | Ext8 | Ext8s | Ext16 | Ext16s | Ext32 | Ext32s | Ext_bad ->
          need ld at 3;
          let mode = u8 b (at + 2) in
          put ld at (ext_op mode) (hi b at) (lo b at) 0 0 ~aux:mode 0L;
          3
      | Mulw | Mulw_s | Div | Div_s | Jmp_ind ->
          need ld at 2;
          put ld at op (u8 b (at + 1)) 0 0 0 ~aux:0 0L;
          2
      | Call_ind ->
          need ld at 2;
          put ld at op (u8 b (at + 1)) 0 0 0 ~aux:0 0L;
          put_ret ld (at + 2);
          2
      | Setcc ->
          need ld at 2;
          put ld at op (u8 b (at + 1)) 0 0 (cond_field code Asm.xop_setcc) ~aux:0 0L;
          2
      | Csel ->
          need ld at 2;
          let d = hi b at in
          put ld at op d d (lo b at) (cond_field code Asm.xop_csel) ~aux:0 0L;
          2
      | Jmp | Call ->
          need ld at 5;
          put_branch ld at op ~cond:0 (at + 5 + i32 b (at + 1));
          if op == Call then put_ret ld (at + 5);
          5
      | Jcc ->
          need ld at 5;
          put_branch ld at op ~cond:(cond_field code Asm.xop_jcc) (at + 5 + i32 b (at + 1));
          5
      | Jmp_mem ->
          need ld at 5;
          put ld at op 0 0 0 0 ~aux:0 (Int64.of_int (i32 b (at + 1)));
          5
      | Brk ->
          need ld at 2;
          put ld at op 0 0 0 0 ~aux:0 (Int64.of_int (u8 b (at + 1)));
          2
      (* [End] and the records no x64 opcode maps to *)
      | End | Movz | Movk | Lea | Mulh | Mulh_s | Udiv | Sdiv | Msub | Jmp_far | Jcc_far
      | Call_far ->
          bad_opcode ld code at
    in
    pos := at + len
  done

let load_a64 ld =
  let b = ld.ld_code in
  let size = Bytes.length b in
  let pos = ref 0 in
  while !pos < size do
    let at = !pos in
    need ld at 4;
    let code = u8 b at and b1 = u8 b (at + 1) and b2 = u8 b (at + 2) in
    let b3 = u8 b (at + 3) in
    let op = op_of_char (Bytes.unsafe_get a64_ops code) in
    (match op with
    | Nop | Ret -> put ld at op 0 0 0 0 ~aux:0 0L
    | Mov_r | Cmp_r | Fcmp | Cvt_si2f | Cvt_f2si -> put ld at op b1 b2 0 0 ~aux:0 0L
    | Movz | Movk ->
        let sh = code - if op == Movz then Asm.aop_movz else Asm.aop_movk in
        put ld at op b1 sh 0 0 ~aux:0
          (Int64.shift_left (Int64.of_int (b2 lor (b3 lsl 8))) (16 * sh))
    | Add_r | Sub_r | Adc_r | Sbb_r | And_r | Or_r | Xor_r | Mul_r | Shl_r | Shr_r | Sar_r
    | Ror_r | Mulh | Mulh_s | Udiv | Sdiv | Msub | Crc | Fadd | Fsub | Fmul | Fdiv ->
        put ld at op b1 b2 b3 0 ~aux:0 0L
    | Add_i | Sub_i | Adc_i | Sbb_i | And_i | Or_i | Xor_i | Mul_i | Shl_i | Shr_i | Sar_i
    | Ror_i ->
        (* d in 5 bits, a in the next 5, imm12 in the remaining 14 *)
        put ld at op (b1 land 0x1F)
          ((b1 lsr 5) lor ((b2 land 0x3) lsl 3))
          0 0 ~aux:0
          (Int64.of_int ((b2 lsr 2) lor (b3 lsl 6)))
    | Cmp_i -> put ld at op b1 0 0 0 ~aux:0 (Int64.of_int (b2 lor (b3 lsl 8)))
    | Lea_x -> put ld at op b1 b2 (b3 land 0x1F) (b3 lsr 5) ~aux:0 0L
    | Ext1 | Ext1s | Ext8 | Ext8s | Ext16 | Ext16s | Ext32 | Ext32s | Ext_bad ->
        put ld at (ext_op b3) b1 b2 0 0 ~aux:b3 0L
    | Ld1 | Ld1s | Ld2 | Ld2s | Ld4 | Ld4s | Ld8 | Ld8s ->
        (* the offset byte counts access-size units *)
        put ld at op b1 b2 0 0 ~aux:0 (Int64.of_int (b3 lsl ((code - Asm.aop_ld) land 3)))
    | Ldx1 | Ldx1s | Ldx2 | Ldx2s | Ldx4 | Ldx4s | Ldx8 | Ldx8s ->
        (* index in the low 5 bits, the shift (0 or log2 of the size) above *)
        let sh = b3 lsr 5 in
        if sh <> 0 && sh <> (code - Asm.aop_ldx) land 3 then
          malformed "a64: bad load shift %d at %d" sh at;
        put ld at op b1 b2 (b3 land 0x1F) sh ~aux:0 0L
    | St1 | St2 | St4 | St8 ->
        put ld at op b1 b2 0 0 ~aux:0 (Int64.of_int (b3 lsl (code - Asm.aop_st)))
    | Setcc -> put ld at op b1 0 0 (cond_field code Asm.aop_setcc) ~aux:0 0L
    | Csel -> put ld at op b1 b2 b3 (cond_field code Asm.aop_csel) ~aux:0 0L
    | Jcc ->
        (* branch displacements count words from the instruction start *)
        put_branch ld at op ~cond:(cond_field code Asm.aop_jcc)
          (at + (4 * Bytes.get_int16_le b (at + 2)))
    | Jmp | Call ->
        let rel24 = ((b1 lor (b2 lsl 8) lor (b3 lsl 16)) lxor 0x800000) - 0x800000 in
        put_branch ld at op ~cond:0 (at + (4 * rel24));
        if op == Call then put_ret ld (at + 4)
    | Jmp_ind -> put ld at op b1 0 0 0 ~aux:0 0L
    | Call_ind ->
        put ld at op b1 0 0 0 ~aux:0 0L;
        put_ret ld (at + 4)
    | Brk -> put ld at op 0 0 0 0 ~aux:0 (Int64.of_int b1)
    (* [End] and the records no a64 opcode maps to *)
    | End | Mov_i | Lea | Mulw | Mulw_s | Div | Div_s | Jmp_mem | Jmp_far | Jcc_far
    | Call_far ->
        bad_opcode ld code at);
    pos := at + 4
  done

(* Decode [code] into a table; returns it with the offset map and the
   instruction count. Raises {!Asm.Decode_error} on a malformed blob. *)
let load (target : Target.t) code =
  let size = Bytes.length code in
  let arch, load_insts, insts_guess =
    match target.Target.arch with
    | Target.X64 -> ("x64", load_x64, (size / 3) + 1)
    | Target.A64 -> ("a64", load_a64, size / 4)
  in
  let ld =
    {
      ld_arch = arch;
      ld_code = code;
      ld_table = Bytes.create ((insts_guess + 1) lsl 4);
      ld_n = 0;
      ld_map = Bytes.make (4 * size) '\xff';
    }
  in
  load_insts ld;
  (* resolve direct branches now that every instruction start is known *)
  let tb = ld.ld_table in
  for k = 0 to ld.ld_n - 1 do
    let p = k lsl 4 in
    match op_of_char (Bytes.get tb p) with
    | (Jmp | Jcc | Call) as op ->
        let off = Int32.to_int (Bytes.get_int32_ne tb (p + 12)) in
        let j =
          if off >= 0 && off < size then Int32.to_int (Bytes.get_int32_ne ld.ld_map (off lsl 2))
          else -1
        in
        if j >= 0 then Bytes.set_int32_ne tb (p + 8) (Int32.of_int j)
        else
          Bytes.set tb p
            (char_of_op (match op with Jmp -> Jmp_far | Jcc -> Jcc_far | _ -> Call_far))
    | _ -> ()
  done;
  Bytes.set tb (ld.ld_n lsl 4) (char_of_op End);
  (tb, ld.ld_map, ld.ld_n)

(* The {!Minst.t} a record was decoded from. x64's two-address forms are
   the three-address records with a = d. *)
let lift (arch : Target.arch) tb k : Minst.t =
  let p = k lsl 4 in
  let op = op_of_char (Bytes.get tb p) in
  let r n = Char.code (Bytes.get tb (p + 2 + n)) in
  let imm = Bytes.get_int64_ne tb (p + 8) in
  let aux = Char.code (Bytes.get tb (p + 6)) in
  let target () = Int32.to_int (Bytes.get_int32_ne tb (p + 12)) in
  let cond () = cond_of_char (Bytes.get tb (p + 5)) in
  let x64 = arch = Target.X64 in
  let alu (a : Minst.alu) : Minst.t =
    if op = alu_r a then if x64 then Alu_rr (a, r 0, r 2) else Alu_rrr (a, r 0, r 1, r 2)
    else if x64 then Alu_ri (a, r 0, imm)
    else Alu_rri (a, r 0, r 1, imm)
  in
  let falu (f : Minst.falu) : Minst.t =
    if x64 then Falu_rr (f, r 0, r 2) else Falu_rrr (f, r 0, r 1, r 2)
  in
  let ld size sext : Minst.t =
    Ld { dst = r 0; base = r 1; off = Int64.to_int imm; size; sext }
  in
  let st size : Minst.t = St { src = r 0; base = r 1; off = Int64.to_int imm; size } in
  let base () = if r 1 = zero_reg then -1 else r 1 in
  let ldx size sext : Minst.t =
    Ldx { dst = r 0; base = base (); index = r 2; scale = 1 lsl r 3; off = Int64.to_int imm; size; sext }
  in
  match op with
  | End -> invalid_arg "Emu.lift: end of table"
  | Nop -> Nop
  | Mov_r -> Mov_rr (r 0, r 1)
  | Mov_i -> Mov_ri (r 0, imm)
  | Movz -> Movz (r 0, Int64.to_int (Int64.shift_right_logical imm (16 * r 1)), r 1)
  | Movk -> Movk (r 0, Int64.to_int (Int64.shift_right_logical imm (16 * r 1)), r 1)
  | Add_r | Add_i -> alu Add
  | Sub_r | Sub_i -> alu Sub
  | Adc_r | Adc_i -> alu Adc
  | Sbb_r | Sbb_i -> alu Sbb
  | And_r | And_i -> alu And
  | Or_r | Or_i -> alu Or
  | Xor_r | Xor_i -> alu Xor
  | Mul_r | Mul_i -> alu Mul
  | Shl_r | Shl_i -> alu Shl
  | Shr_r | Shr_i -> alu Shr
  | Sar_r | Sar_i -> alu Sar
  | Ror_r | Ror_i -> alu Ror
  | Cmp_r -> Cmp_rr (r 0, r 1)
  | Cmp_i -> Cmp_ri (r 0, imm)
  | Ld1 -> ld 1 false
  | Ld1s -> ld 1 true
  | Ld2 -> ld 2 false
  | Ld2s -> ld 2 true
  | Ld4 -> ld 4 false
  | Ld4s -> ld 4 true
  | Ld8 -> ld 8 false
  | Ld8s -> ld 8 true
  | St1 -> st 1
  | St2 -> st 2
  | St4 -> st 4
  | St8 -> st 8
  | Ldx1 -> ldx 1 false
  | Ldx1s -> ldx 1 true
  | Ldx2 -> ldx 2 false
  | Ldx2s -> ldx 2 true
  | Ldx4 -> ldx 4 false
  | Ldx4s -> ldx 4 true
  | Ldx8 -> ldx 8 false
  | Ldx8s -> ldx 8 true
  | Lea_x ->
      Lea { dst = r 0; base = base (); index = r 2; scale = 1 lsl r 3; off = Int64.to_int imm }
  | Lea ->
      (* the absent index as encoded: a negative byte *)
      Lea { dst = r 0; base = r 1; index = aux - 256; scale = 1; off = Int64.to_int imm }
  | Ext1 | Ext1s | Ext8 | Ext8s | Ext16 | Ext16s | Ext32 | Ext32s | Ext_bad ->
      Ext { dst = r 0; src = r 1; bits = aux land 0x7F; signed = aux land 0x80 <> 0 }
  | Mulw -> Mul_wide { signed = false; src = r 0 }
  | Mulw_s -> Mul_wide { signed = true; src = r 0 }
  | Mulh -> Mul_hi { signed = false; dst = r 0; a = r 1; b = r 2 }
  | Mulh_s -> Mul_hi { signed = true; dst = r 0; a = r 1; b = r 2 }
  | Div -> Div { signed = false; src = r 0 }
  | Div_s -> Div { signed = true; src = r 0 }
  | Udiv -> Div_rrr { signed = false; dst = r 0; a = r 1; b = r 2 }
  | Sdiv -> Div_rrr { signed = true; dst = r 0; a = r 1; b = r 2 }
  | Msub -> Msub { dst = r 0; a = r 1; b = r 2; c = r 0 }
  | Crc -> if x64 then Crc32_rr (r 0, r 2) else Crc32_rrr (r 0, r 1, r 2)
  | Setcc -> Setcc (cond (), r 0)
  | Csel -> Csel { cond = cond (); dst = r 0; a = r 1; b = r 2 }
  | Jmp | Jmp_far -> Jmp (target ())
  | Jcc | Jcc_far -> Jcc (cond (), target ())
  | Call | Call_far -> Call_rel (target ())
  | Jmp_ind -> Jmp_ind (r 0)
  | Jmp_mem -> Jmp_mem imm
  | Call_ind -> Call_ind (r 0)
  | Ret -> Ret
  | Fadd -> falu Fadd
  | Fsub -> falu Fsub
  | Fmul -> falu Fmul
  | Fdiv -> falu Fdiv
  | Fcmp -> Fcmp_rr (r 0, r 1)
  | Cvt_si2f -> Cvt_si2f (r 0, r 1)
  | Cvt_f2si -> Cvt_f2si (r 0, r 1)
  | Brk -> Brk (Int64.to_int imm)

(** Decode a whole blob into {!Minst} instructions plus an offset -> index
    map (length [Bytes.length code + 1], -1 where no instruction starts):
    the loader's table lifted back, for tests and debugging. Raises
    {!Asm.Decode_error} on a malformed blob. *)
let decode_all (target : Target.t) code =
  let tb, map, n = load target code in
  let size = Bytes.length code in
  ( Array.init n (lift target.Target.arch tb),
    Array.init (size + 1) (fun off ->
        if off < size then Int32.to_int (Bytes.get_int32_ne map (off lsl 2)) else -1) )

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
    otherwise from the bump pointer. A malformed blob raises
    {!Asm.Decode_error} and leaves the machine as it was. *)
let register_code t (code : bytes) =
  let table, map, _ = load t.target code in
  let size = Bytes.length code in
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
          cm_table = table;
          cm_map = map;
          cm_chains = Atomic.make untranslated;
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
  let i = Int32.to_int (Bytes.get_int32_ne m.cm_map ((addr - m.cm_base) lsl 2)) in
  if i < 0 then
    raise (Trap (Printf.sprintf "jump into middle of instruction at 0x%x" addr));
  i

(* ---------------- hot accessors ----------------

   Everything a translated instruction does when it runs is defined here
   and inlined into its closure, so register values stay unboxed [int64]s
   from read to write. Library modules are compiled with [-opaque] in
   dune's dev profile, so calls into {!Memory} or {!Qcomp_support.I128}
   could not be inlined: each would box its [int64] arguments and result.
   The memory accesses below use {!Memory}'s primitive accessors, which
   inline across [-opaque], and repeat {!Memory.check}'s bounds test and
   {!Memory.Fault} messages so that those inline too. *)

let[@inline] reg t r = Bytes.get_int64_ne t.regs (r lsl 3)
let[@inline] set_reg t r v = Bytes.set_int64_ne t.regs (r lsl 3) v

(* Unchecked: a closure's register offsets come from the table, whose
   loader rejected every register outside the register file. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* a register by its byte offset [r lsl 3] in the register file *)
let[@inline] rd t o = get64u t.regs o
let[@inline] wr t o v = set64u t.regs o v

(* Fields of the record at byte [p] of a table (see the layout above). *)
let[@inline] op_at tb p = op_of_char (Bytes.unsafe_get tb p)
let[@inline] cost_at tb p = Char.code (Bytes.unsafe_get tb (p + 1))
let[@inline] r0 tb p = Char.code (Bytes.unsafe_get tb (p + 2))
let[@inline] r1 tb p = Char.code (Bytes.unsafe_get tb (p + 3))
let[@inline] r2 tb p = Char.code (Bytes.unsafe_get tb (p + 4))
let[@inline] r3 tb p = Char.code (Bytes.unsafe_get tb (p + 5))
let[@inline] cond_at tb p = cond_of_char (Bytes.unsafe_get tb (p + 5))
let[@inline] ret_at tb p = Int32.to_int (get32u tb (p + 4))
let[@inline] imm tb p = get64u tb (p + 8)
let[@inline] tgt_at tb p = Int32.to_int (get32u tb (p + 8))
let[@inline] off_at tb p = Int32.to_int (get32u tb (p + 12))

let[@inline never] access_fault n addr =
  raise (Memory.Fault (Printf.sprintf "access of %d bytes at 0x%x" n addr))

(* an access of [n] bytes at [addr] that {!Memory.check} would refuse *)
let[@inline] outside msize addr n = addr < Memory.page || addr > msize - n

(* {!Memory.sext8} and {!Memory.sext16}, inlined here *)
let[@inline] sext8 v = (v lsl (Sys.int_size - 8)) asr (Sys.int_size - 8)
let[@inline] sext16 v = (v lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

let[@inline] load64 (mem : Memory.t) addr =
  if outside mem.Memory.size addr 8 then access_fault 8 addr;
  Memory.get64u mem.Memory.data addr

let[@inline] store64 (mem : Memory.t) addr v =
  if outside mem.Memory.size addr 8 then access_fault 8 addr;
  Memory.set64u mem.Memory.data addr v

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

(* A condition as the test it negates or is: each pair of conditions
   shares one test, and a branch on the negated one swaps its targets. *)
let cond_test : Minst.cond -> Minst.cond * bool = function
  | Eq -> (Eq, false)
  | Ne -> (Eq, true)
  | Slt -> (Slt, false)
  | Sge -> (Slt, true)
  | Sle -> (Sle, false)
  | Sgt -> (Sle, true)
  | Ult -> (Ult, false)
  | Uge -> (Ult, true)
  | Ule -> (Ule, false)
  | Ugt -> (Ule, true)
  | Ov -> (Ov, false)
  | Noov -> (Ov, true)

(* ---------------- flag liveness ----------------

   A module-wide backward fixpoint over the table gives, for every
   instruction, the flags that some path after it reads before it writes
   them. An op none of whose flags is read skips computing them. Leaving
   the module's known flow (a return, an indirect or far transfer, falling
   off the end) keeps every flag live, so the flags are exact wherever
   other code, the host or a runtime function could read them. *)

let flag_z = 1
let flag_s = 2
let flag_c = 4
let flag_o = 8
let all_flags = 15

let cond_uses : Minst.cond -> int = function
  | Eq | Ne -> flag_z
  | Slt | Sge -> flag_s lor flag_o
  | Sle | Sgt -> flag_z lor flag_s lor flag_o
  | Ult | Uge -> flag_c
  | Ule | Ugt -> flag_c lor flag_z
  | Ov | Noov -> flag_o

let flag_defs = function
  | Add_r | Sub_r | Adc_r | Sbb_r | And_r | Or_r | Xor_r | Mul_r | Add_i | Sub_i | Adc_i
  | Sbb_i | And_i | Or_i | Xor_i | Mul_i | Cmp_r | Cmp_i | Fcmp ->
      all_flags
  | Shl_r | Shr_r | Sar_r | Ror_r | Shl_i | Shr_i | Sar_i | Ror_i -> flag_z lor flag_s
  | _ -> 0

let flag_uses tb p =
  match op_at tb p with
  | Adc_r | Adc_i | Sbb_r | Sbb_i -> flag_c
  | Jcc | Jcc_far | Setcc | Csel -> cond_uses (cond_at tb p)
  | _ -> 0

(* The flags live after each of the [n] instructions of table [tb]. *)
let flags_live_after tb n =
  let live_in = Array.make (n + 1) 0 in
  live_in.(n) <- all_flags;
  let after k =
    let p = k lsl 4 in
    match op_at tb p with
    | Jmp | Call -> live_in.(tgt_at tb p)
    | Jcc -> live_in.(tgt_at tb p) lor live_in.(k + 1)
    | Jmp_far | Jcc_far | Call_far | Jmp_ind | Jmp_mem | Call_ind | Ret -> all_flags
    | _ -> live_in.(k + 1)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let p = k lsl 4 in
      let v = flag_uses tb p lor (after k land lnot (flag_defs (op_at tb p))) in
      if v <> live_in.(k) then begin
        live_in.(k) <- v;
        changed := true
      end
    done
  done;
  Array.init n after

(* ---------------- threaded code ----------------

   A module runs as threaded code. On its first entry it is translated
   into one closure per instruction, with operands, cost and successor
   baked in; no closure matches on an opcode when it runs.

   A chain is a straight-line run of instructions up to and including the
   next control transfer. Entering the chain at index [k] ({!enter})
   charges the cycles and instruction count of the rest of it at once,
   checks fuel once, and calls [k]'s body. Each body does its
   instruction's work and tail-calls the next body; a direct transfer
   enters its target's chain, a far or indirect one reaches its target
   through {!goto}. Entering midway is entering at another index, so
   branch targets need no chain of their own.

   The counts stay exact. A body that can fault (a load or store, a
   division, a bad extension, [brk]) gives back the part of the charge
   after its own instruction before it raises, which costs the fast path
   nothing. A chain that would run past [fuel] runs only the prefix fuel
   allows and traps with that prefix's counts ([fuel_stop] in
   {!translate}).

   Flags no path reads are never computed (see "flag liveness"). A
   compare whose flags only the branch after it reads fuses with that
   branch ({!cmp_jcc_body}), and a few frequent pairs of instructions
   share one body ({!pair_body}), so fewer closures run. *)

(* [d <- a op b] for the ALU operations, setting the flags each defines;
   [d] is a register offset *)
let[@inline] add t d a b =
  let r = Int64.add a b in
  flags_add t a b r;
  wr t d r

let[@inline] sub t d a b =
  let r = Int64.sub a b in
  flags_sub t a b r;
  wr t d r

let[@inline] carry t = if t.cf then 1L else 0L

let[@inline] adc t d a b =
  let cin = carry t in
  let ab = Int64.add a b in
  let r = Int64.add ab cin in
  set_zs t r;
  t.cf <- ult ab a || ult r ab;
  (* signed overflow (valid with carry-in): operands agree, result differs *)
  t.ovf <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
  wr t d r

let[@inline] sbb t d a b =
  let cin = carry t in
  let r = Int64.sub (Int64.sub a b) cin in
  let borrow = ult a b || (a = b && cin = 1L) || ult (Int64.sub a b) cin in
  set_zs t r;
  t.cf <- borrow;
  t.ovf <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
  wr t d r

(* and / or / xor *)
let[@inline] logic t d r =
  flags_logic t r;
  wr t d r

let[@inline] mul t d a b =
  let r = Int64.mul a b in
  set_zs t r;
  let ovf = smulh a b <> Int64.shift_right r 63 in
  t.cf <- ovf;
  t.ovf <- ovf;
  wr t d r

(* shifts and rotates set only zf/sf *)
let[@inline] shifted t d r =
  set_zs t r;
  wr t d r

let[@inline] count b = Int64.to_int b land 63

let[@inline] rotr a n =
  if n = 0 then a else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))

(* float operations on the bit patterns the registers hold *)
let[@inline] fadd a b = Int64.bits_of_float (Int64.float_of_bits a +. Int64.float_of_bits b)
let[@inline] fsub a b = Int64.bits_of_float (Int64.float_of_bits a -. Int64.float_of_bits b)
let[@inline] fmul a b = Int64.bits_of_float (Int64.float_of_bits a *. Int64.float_of_bits b)
let[@inline] fdiv a b = Int64.bits_of_float (Int64.float_of_bits a /. Int64.float_of_bits b)

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

let ends_chain = function
  | Jmp | Jcc | Call | Jmp_far | Jcc_far | Call_far | Jmp_ind | Jmp_mem | Call_ind | Ret -> true
  | _ -> false

(* Give back [uc] cycles and [un] instructions charged past a faulting
   instruction, then raise. *)
let[@inline never] fault t uc un n addr =
  t.cycles <- t.cycles - uc;
  t.icount <- t.icount - un;
  access_fault n addr

let[@inline never] trap t uc un msg =
  t.cycles <- t.cycles - uc;
  t.icount <- t.icount - un;
  raise (Trap msg)

let fell_off (_ : t) = raise (Trap "fell off end of code")

(* Enter the chain of [ch] at index [k]: charge the rest of the chain at
   once, check fuel once, run it. *)
let[@inline] enter ch k t =
  t.cycles <- t.cycles + Array.unsafe_get ch.ch_cycles k;
  let ic = t.icount + Array.unsafe_get ch.ch_insts k in
  t.icount <- ic;
  if t.fuel >= 0 && ic > t.fuel then ch.ch_fuel_stop t k else (Array.unsafe_get ch.ch_body k) t

(* The body of the non-transfer instruction [k] of table [tb]: its work,
   then a tail call of [next]. [live] holds the flags read after [k]; [uc]
   and [un] are the cycles and instructions charged for the part of the
   chain after [k], which a fault gives back. *)
let op_body (mem : Memory.t) tb k ~live ~(next : t -> unit) ~uc ~un : t -> unit =
  let data = mem.Memory.data and msize = mem.Memory.size in
  let p = k lsl 4 in
  let op = op_at tb p in
  let o0 = r0 tb p lsl 3 and o1 = r1 tb p lsl 3 and o2 = r2 tb p lsl 3 in
  let i = imm tb p in
  let off = Int64.to_int i in
  let n = off land 63 in
  let fl = live land flag_defs op <> 0 in
  match op with
  | End | Jmp | Jcc | Call | Jmp_far | Jcc_far | Call_far | Jmp_ind | Jmp_mem | Call_ind | Ret
    ->
      invalid_arg "Emu.op_body: a control transfer"
  | Nop -> next
  | Mov_r -> fun t -> wr t o0 (rd t o1); next t
  | Mov_i | Movz -> fun t -> wr t o0 i; next t
  | Movk ->
      let keep = Int64.lognot (Int64.shift_left 0xFFFFL (16 * r1 tb p)) in
      fun t -> wr t o0 (Int64.logor (Int64.logand (rd t o0) keep) i); next t
  | Add_r when fl -> fun t -> add t o0 (rd t o1) (rd t o2); next t
  | Add_r -> fun t -> wr t o0 (Int64.add (rd t o1) (rd t o2)); next t
  | Add_i when fl -> fun t -> add t o0 (rd t o1) i; next t
  | Add_i -> fun t -> wr t o0 (Int64.add (rd t o1) i); next t
  | Sub_r when fl -> fun t -> sub t o0 (rd t o1) (rd t o2); next t
  | Sub_r -> fun t -> wr t o0 (Int64.sub (rd t o1) (rd t o2)); next t
  | Sub_i when fl -> fun t -> sub t o0 (rd t o1) i; next t
  | Sub_i -> fun t -> wr t o0 (Int64.sub (rd t o1) i); next t
  | Adc_r when fl -> fun t -> adc t o0 (rd t o1) (rd t o2); next t
  | Adc_r -> fun t -> wr t o0 (Int64.add (Int64.add (rd t o1) (rd t o2)) (carry t)); next t
  | Adc_i when fl -> fun t -> adc t o0 (rd t o1) i; next t
  | Adc_i -> fun t -> wr t o0 (Int64.add (Int64.add (rd t o1) i) (carry t)); next t
  | Sbb_r when fl -> fun t -> sbb t o0 (rd t o1) (rd t o2); next t
  | Sbb_r -> fun t -> wr t o0 (Int64.sub (Int64.sub (rd t o1) (rd t o2)) (carry t)); next t
  | Sbb_i when fl -> fun t -> sbb t o0 (rd t o1) i; next t
  | Sbb_i -> fun t -> wr t o0 (Int64.sub (Int64.sub (rd t o1) i) (carry t)); next t
  | And_r when fl -> fun t -> logic t o0 (Int64.logand (rd t o1) (rd t o2)); next t
  | And_r -> fun t -> wr t o0 (Int64.logand (rd t o1) (rd t o2)); next t
  | And_i when fl -> fun t -> logic t o0 (Int64.logand (rd t o1) i); next t
  | And_i -> fun t -> wr t o0 (Int64.logand (rd t o1) i); next t
  | Or_r when fl -> fun t -> logic t o0 (Int64.logor (rd t o1) (rd t o2)); next t
  | Or_r -> fun t -> wr t o0 (Int64.logor (rd t o1) (rd t o2)); next t
  | Or_i when fl -> fun t -> logic t o0 (Int64.logor (rd t o1) i); next t
  | Or_i -> fun t -> wr t o0 (Int64.logor (rd t o1) i); next t
  | Xor_r when fl -> fun t -> logic t o0 (Int64.logxor (rd t o1) (rd t o2)); next t
  | Xor_r -> fun t -> wr t o0 (Int64.logxor (rd t o1) (rd t o2)); next t
  | Xor_i when fl -> fun t -> logic t o0 (Int64.logxor (rd t o1) i); next t
  | Xor_i -> fun t -> wr t o0 (Int64.logxor (rd t o1) i); next t
  | Mul_r when fl -> fun t -> mul t o0 (rd t o1) (rd t o2); next t
  | Mul_r -> fun t -> wr t o0 (Int64.mul (rd t o1) (rd t o2)); next t
  | Mul_i when fl -> fun t -> mul t o0 (rd t o1) i; next t
  | Mul_i -> fun t -> wr t o0 (Int64.mul (rd t o1) i); next t
  | Shl_r when fl -> fun t -> shifted t o0 (Int64.shift_left (rd t o1) (count (rd t o2))); next t
  | Shl_r -> fun t -> wr t o0 (Int64.shift_left (rd t o1) (count (rd t o2))); next t
  | Shl_i when fl -> fun t -> shifted t o0 (Int64.shift_left (rd t o1) n); next t
  | Shl_i -> fun t -> wr t o0 (Int64.shift_left (rd t o1) n); next t
  | Shr_r when fl ->
      fun t -> shifted t o0 (Int64.shift_right_logical (rd t o1) (count (rd t o2))); next t
  | Shr_r -> fun t -> wr t o0 (Int64.shift_right_logical (rd t o1) (count (rd t o2))); next t
  | Shr_i when fl -> fun t -> shifted t o0 (Int64.shift_right_logical (rd t o1) n); next t
  | Shr_i -> fun t -> wr t o0 (Int64.shift_right_logical (rd t o1) n); next t
  | Sar_r when fl -> fun t -> shifted t o0 (Int64.shift_right (rd t o1) (count (rd t o2))); next t
  | Sar_r -> fun t -> wr t o0 (Int64.shift_right (rd t o1) (count (rd t o2))); next t
  | Sar_i when fl -> fun t -> shifted t o0 (Int64.shift_right (rd t o1) n); next t
  | Sar_i -> fun t -> wr t o0 (Int64.shift_right (rd t o1) n); next t
  | Ror_r when fl -> fun t -> shifted t o0 (rotr (rd t o1) (count (rd t o2))); next t
  | Ror_r -> fun t -> wr t o0 (rotr (rd t o1) (count (rd t o2))); next t
  | Ror_i when fl -> fun t -> shifted t o0 (rotr (rd t o1) n); next t
  | Ror_i -> fun t -> wr t o0 (rotr (rd t o1) n); next t
  | Cmp_r when fl ->
      fun t ->
        let a = rd t o0 and b = rd t o1 in
        flags_sub t a b (Int64.sub a b);
        next t
  | Cmp_i when fl ->
      fun t ->
        let a = rd t o0 in
        flags_sub t a i (Int64.sub a i);
        next t
  | Cmp_r | Cmp_i -> next
  | Ld1 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 1 then fault t uc un 1 a
        else (wr t o0 (Int64.of_int (Char.code (Memory.get8u data a))); next t)
  | Ld1s ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 1 then fault t uc un 1 a
        else begin
          wr t o0 (Int64.of_int (sext8 (Char.code (Memory.get8u data a))));
          next t
        end
  | Ld2 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 2 then fault t uc un 2 a
        else (wr t o0 (Int64.of_int (Memory.get16u data a)); next t)
  | Ld2s ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 2 then fault t uc un 2 a
        else (wr t o0 (Int64.of_int (sext16 (Memory.get16u data a))); next t)
  | Ld4 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 4 then fault t uc un 4 a
        else begin
          wr t o0 (Int64.logand (Int64.of_int32 (Memory.get32u data a)) 0xFFFFFFFFL);
          next t
        end
  | Ld4s ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 4 then fault t uc un 4 a
        else (wr t o0 (Int64.of_int32 (Memory.get32u data a)); next t)
  | Ld8 | Ld8s ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 8 then fault t uc un 8 a
        else (wr t o0 (Memory.get64u data a); next t)
  | St1 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 1 then fault t uc un 1 a
        else (Memory.set8u data a (Char.unsafe_chr (Int64.to_int (rd t o0) land 0xFF)); next t)
  | St2 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 2 then fault t uc un 2 a
        else (Memory.set16u data a (Int64.to_int (rd t o0) land 0xFFFF); next t)
  | St4 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 4 then fault t uc un 4 a
        else (Memory.set32u data a (Int64.to_int32 (rd t o0)); next t)
  | St8 ->
      fun t ->
        let a = Int64.to_int (rd t o1) + off in
        if outside msize a 8 then fault t uc un 8 a
        else (Memory.set64u data a (rd t o0); next t)
  | Lea_x ->
      let sh = r3 tb p in
      fun t -> wr t o0 (Int64.add (Int64.add (rd t o1) i) (Int64.shift_left (rd t o2) sh)); next t
  | Ldx1 | Ldx1s | Ldx2 | Ldx2s | Ldx4 | Ldx4s | Ldx8 | Ldx8s -> (
      let sh = r3 tb p in
      (* [base + index << sh + disp]; an absent base reads {!zero_reg} *)
      let[@inline] addr t = Int64.to_int (rd t o1) + (Int64.to_int (rd t o2) lsl sh) + off in
      match op with
      | Ldx1 ->
          fun t ->
            let a = addr t in
            if outside msize a 1 then fault t uc un 1 a
            else (wr t o0 (Int64.of_int (Char.code (Memory.get8u data a))); next t)
      | Ldx1s ->
          fun t ->
            let a = addr t in
            if outside msize a 1 then fault t uc un 1 a
            else (wr t o0 (Int64.of_int (sext8 (Char.code (Memory.get8u data a)))); next t)
      | Ldx2 ->
          fun t ->
            let a = addr t in
            if outside msize a 2 then fault t uc un 2 a
            else (wr t o0 (Int64.of_int (Memory.get16u data a)); next t)
      | Ldx2s ->
          fun t ->
            let a = addr t in
            if outside msize a 2 then fault t uc un 2 a
            else (wr t o0 (Int64.of_int (sext16 (Memory.get16u data a))); next t)
      | Ldx4 ->
          fun t ->
            let a = addr t in
            if outside msize a 4 then fault t uc un 4 a
            else begin
              wr t o0 (Int64.logand (Int64.of_int32 (Memory.get32u data a)) 0xFFFFFFFFL);
              next t
            end
      | Ldx4s ->
          fun t ->
            let a = addr t in
            if outside msize a 4 then fault t uc un 4 a
            else (wr t o0 (Int64.of_int32 (Memory.get32u data a)); next t)
      | _ ->
          fun t ->
            let a = addr t in
            if outside msize a 8 then fault t uc un 8 a
            else (wr t o0 (Memory.get64u data a); next t))
  | Lea -> fun t -> wr t o0 (Int64.add (rd t o1) i); next t
  | Ext1 -> fun t -> wr t o0 (Int64.logand (rd t o1) 1L); next t
  | Ext1s -> fun t -> wr t o0 (Int64.shift_right (Int64.shift_left (rd t o1) 63) 63); next t
  | Ext8 -> fun t -> wr t o0 (Int64.logand (rd t o1) 0xFFL); next t
  | Ext8s -> fun t -> wr t o0 (Int64.shift_right (Int64.shift_left (rd t o1) 56) 56); next t
  | Ext16 -> fun t -> wr t o0 (Int64.logand (rd t o1) 0xFFFFL); next t
  | Ext16s -> fun t -> wr t o0 (Int64.shift_right (Int64.shift_left (rd t o1) 48) 48); next t
  | Ext32 -> fun t -> wr t o0 (Int64.logand (rd t o1) 0xFFFFFFFFL); next t
  | Ext32s -> fun t -> wr t o0 (Int64.shift_right (Int64.shift_left (rd t o1) 32) 32); next t
  | Ext_bad -> fun t -> trap t uc un "bad extension width"
  (* x64's widening multiply and division use rax (offset 0) and rdx (16) *)
  | Mulw ->
      fun t ->
        let a = rd t 0 and b = rd t o0 in
        wr t 0 (Int64.mul a b);
        wr t 16 (umulh a b);
        next t
  | Mulw_s ->
      fun t ->
        let a = rd t 0 and b = rd t o0 in
        wr t 0 (Int64.mul a b);
        wr t 16 (smulh a b);
        next t
  | Mulh -> fun t -> wr t o0 (umulh (rd t o1) (rd t o2)); next t
  | Mulh_s -> fun t -> wr t o0 (smulh (rd t o1) (rd t o2)); next t
  | Div ->
      fun t ->
        let d = rd t o0 in
        if d = 0L then trap t uc un "integer division by zero"
        else begin
          let a = rd t 0 in
          wr t 0 (Int64.unsigned_div a d);
          wr t 16 (Int64.unsigned_rem a d);
          next t
        end
  | Div_s ->
      fun t ->
        let d = rd t o0 and a = rd t 0 in
        if d = 0L then trap t uc un "integer division by zero"
        else if a = Int64.min_int && d = -1L then trap t uc un "integer division overflow"
        else (wr t 0 (Int64.div a d); wr t 16 (Int64.rem a d); next t)
  (* AArch64 semantics: division by zero yields zero *)
  | Udiv ->
      fun t ->
        let b = rd t o2 in
        wr t o0 (if b = 0L then 0L else Int64.unsigned_div (rd t o1) b);
        next t
  | Sdiv ->
      fun t ->
        let a = rd t o1 and b = rd t o2 in
        wr t o0
          (if b = 0L then 0L
           else if a = Int64.min_int && b = -1L then Int64.min_int
           else Int64.div a b);
        next t
  | Msub -> fun t -> wr t o0 (Int64.sub (rd t o0) (Int64.mul (rd t o1) (rd t o2))); next t
  | Crc -> fun t -> wr t o0 (crc32c (rd t o1) (rd t o2)); next t
  | Setcc ->
      let c = cond_at tb p in
      fun t -> wr t o0 (if cond_true t c then 1L else 0L); next t
  | Csel ->
      let c = cond_at tb p in
      fun t -> wr t o0 (if cond_true t c then rd t o1 else rd t o2); next t
  | Fadd -> fun t -> wr t o0 (fadd (rd t o1) (rd t o2)); next t
  | Fsub -> fun t -> wr t o0 (fsub (rd t o1) (rd t o2)); next t
  | Fmul -> fun t -> wr t o0 (fmul (rd t o1) (rd t o2)); next t
  | Fdiv -> fun t -> wr t o0 (fdiv (rd t o1) (rd t o2)); next t
  | Fcmp when fl ->
      fun t ->
        let a = Int64.float_of_bits (rd t o0) and b = Int64.float_of_bits (rd t o1) in
        t.zf <- a = b;
        t.sf <- a < b;
        t.ovf <- false;
        t.cf <- a < b;
        next t
  | Fcmp -> next
  | Cvt_si2f -> fun t -> wr t o0 (Int64.bits_of_float (Int64.to_float (rd t o1))); next t
  | Cvt_f2si -> fun t -> wr t o0 (Int64.of_float (Int64.float_of_bits (rd t o1))); next t
  | Brk ->
      let msg = Printf.sprintf "brk #%d" off in
      fun t -> trap t uc un msg

(* Two adjacent instructions [k] and [k + 1] of one chain as one body, for
   the pairs that run most often, or [None]. [live] is the flags read
   after [k + 1], the rest as for {!op_body} of [k]. *)
let pair_body (mem : Memory.t) tb k ~live ~(next : t -> unit) ~uc ~un : (t -> unit) option =
  let data = mem.Memory.data and msize = mem.Memory.size in
  let p = k lsl 4 and q = (k + 1) lsl 4 in
  let d1 = r0 tb p lsl 3 and s1 = r1 tb p lsl 3 and i1 = imm tb p in
  let d2 = r0 tb q lsl 3 and s2 = r1 tb q lsl 3 and i2 = imm tb q in
  let off1 = Int64.to_int i1 and off2 = Int64.to_int i2 in
  let uc2 = uc - cost_at tb q and un2 = un - 1 in
  let op2 = op_at tb q in
  match (op_at tb p, op2) with
  | (Ld8 | Ld8s), (Ld8 | Ld8s) ->
      Some
        (fun t ->
          let a = Int64.to_int (rd t s1) + off1 in
          if outside msize a 8 then fault t uc un 8 a
          else begin
            wr t d1 (Memory.get64u data a);
            let a = Int64.to_int (rd t s2) + off2 in
            if outside msize a 8 then fault t uc2 un2 8 a
            else (wr t d2 (Memory.get64u data a); next t)
          end)
  | St8, St8 ->
      Some
        (fun t ->
          let a = Int64.to_int (rd t s1) + off1 in
          if outside msize a 8 then fault t uc un 8 a
          else begin
            Memory.set64u data a (rd t d1);
            let a = Int64.to_int (rd t s2) + off2 in
            if outside msize a 8 then fault t uc2 un2 8 a
            else (Memory.set64u data a (rd t d2); next t)
          end)
  | St8, (Ld8 | Ld8s) ->
      Some
        (fun t ->
          let a = Int64.to_int (rd t s1) + off1 in
          if outside msize a 8 then fault t uc un 8 a
          else begin
            Memory.set64u data a (rd t d1);
            let a = Int64.to_int (rd t s2) + off2 in
            if outside msize a 8 then fault t uc2 un2 8 a
            else (wr t d2 (Memory.get64u data a); next t)
          end)
  | (Ld8 | Ld8s), Mov_r ->
      Some
        (fun t ->
          let a = Int64.to_int (rd t s1) + off1 in
          if outside msize a 8 then fault t uc un 8 a
          else begin
            wr t d1 (Memory.get64u data a);
            wr t d2 (rd t s2);
            next t
          end)
  (* a decimal column read: the row's word, then the copy its sign
     extension to 128 bits starts from *)
  | (Ldx8 | Ldx8s), Mov_r ->
      let x1 = r2 tb p lsl 3 and sh1 = r3 tb p in
      Some
        (fun t ->
          let a = Int64.to_int (rd t s1) + (Int64.to_int (rd t x1) lsl sh1) + off1 in
          if outside msize a 8 then fault t uc un 8 a
          else begin
            wr t d1 (Memory.get64u data a);
            wr t d2 (rd t s2);
            next t
          end)
  | Lea_x, (Ld8 | Ld8s) ->
      let x1 = r2 tb p lsl 3 and sh1 = r3 tb p in
      Some
        (fun t ->
          wr t d1 (Int64.add (Int64.add (rd t s1) i1) (Int64.shift_left (rd t x1) sh1));
          let a = Int64.to_int (rd t s2) + off2 in
          if outside msize a 8 then fault t uc2 un2 8 a
          else (wr t d2 (Memory.get64u data a); next t))
  | Mov_i, Lea_x ->
      let x2 = r2 tb q lsl 3 and sh2 = r3 tb q in
      Some
        (fun t ->
          wr t d1 i1;
          wr t d2 (Int64.add (Int64.add (rd t s2) i2) (Int64.shift_left (rd t x2) sh2));
          next t)
  | Mov_r, Mov_r ->
      Some
        (fun t ->
          wr t d1 (rd t s1);
          wr t d2 (rd t s2);
          next t)
  (* x64's three-address idiom [mov d, a; op d, imm] with the flags of
     [op] unread: d = a op imm *)
  | Mov_r, (Add_i | And_i | Shl_i | Shr_i | Sar_i)
    when d2 = d1 && s2 = d1 && live land flag_defs op2 = 0 ->
      let n2 = off2 land 63 in
      Some
        (match op2 with
        | Add_i -> fun t -> wr t d1 (Int64.add (rd t s1) i2); next t
        | And_i -> fun t -> wr t d1 (Int64.logand (rd t s1) i2); next t
        | Shl_i -> fun t -> wr t d1 (Int64.shift_left (rd t s1) n2); next t
        | Shr_i -> fun t -> wr t d1 (Int64.shift_right_logical (rd t s1) n2); next t
        | _ -> fun t -> wr t d1 (Int64.shift_right (rd t s1) n2); next t)
  | _ -> None

(* [jcc c]: continue at index [taken] when the flags satisfy [c], else at
   [fall]. *)
let jcc_body ch (c : Minst.cond) ~taken ~fall : t -> unit =
  let test, negated = cond_test c in
  let y, n = if negated then (fall, taken) else (taken, fall) in
  match test with
  | Eq -> fun t -> if t.zf then enter ch y t else enter ch n t
  | Slt -> fun t -> if t.sf <> t.ovf then enter ch y t else enter ch n t
  | Sle -> fun t -> if t.zf || t.sf <> t.ovf then enter ch y t else enter ch n t
  | Ult -> fun t -> if t.cf then enter ch y t else enter ch n t
  | Ule -> fun t -> if t.cf || t.zf then enter ch y t else enter ch n t
  | _ -> fun t -> if t.ovf then enter ch y t else enter ch n t

(* [cmp a, b; jcc c] with no flag read after the branch: the branch tests
   the operands directly. [b] is register offset [o1], or the immediate
   [i] when [o1 < 0]. *)
let cmp_jcc_body ch o0 o1 (i : int64) (c : Minst.cond) ~taken ~fall : t -> unit =
  let test, negated = cond_test c in
  let y, n = if negated then (fall, taken) else (taken, fall) in
  match (test, o1 < 0) with
  | Eq, true -> fun t -> if rd t o0 = i then enter ch y t else enter ch n t
  | Slt, true -> fun t -> if rd t o0 < i then enter ch y t else enter ch n t
  | Sle, true -> fun t -> if rd t o0 <= i then enter ch y t else enter ch n t
  | Ult, true -> fun t -> if ult (rd t o0) i then enter ch y t else enter ch n t
  | Ule, true -> fun t -> if ult i (rd t o0) then enter ch n t else enter ch y t
  | Eq, false -> fun t -> if rd t o0 = rd t o1 then enter ch y t else enter ch n t
  | Slt, false -> fun t -> if rd t o0 < rd t o1 then enter ch y t else enter ch n t
  | Sle, false -> fun t -> if rd t o0 <= rd t o1 then enter ch y t else enter ch n t
  | Ult, false -> fun t -> if ult (rd t o0) (rd t o1) then enter ch y t else enter ch n t
  | Ule, false -> fun t -> if ult (rd t o1) (rd t o0) then enter ch n t else enter ch y t
  | _, imm_form ->
      (* overflow of [a - b] *)
      fun t ->
        let a = rd t o0 in
        let b = if imm_form then i else rd t o1 in
        if Int64.logand (Int64.logxor a b) (Int64.logxor a (Int64.sub a b)) < 0L then
          enter ch y t
        else enter ch n t

(* The number of instructions in a table: its records up to [End]. *)
let table_length tb =
  let k = ref 0 in
  while op_at tb (!k lsl 4) != End do
    incr k
  done;
  !k

(* Transfer control to an arbitrary address: code, runtime or sentinel.
   Returns the instruction index to continue at, in the module [find_mod]
   just left in [t.last_mod], or -1 once control reaches the sentinel. A
   [Call_ind] into the runtime never comes here (see [transfer_body]). *)
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

(* continue at an arbitrary address; return at the sentinel *)
and jump t a =
  let k = goto t a in
  if k >= 0 then enter (chains_of t t.last_mod) k t

(* [m] as threaded code, translated on the module's first entry. The first
   domain to enter translates under [reg_mu]; the [Atomic] publishes the
   finished translation to every other domain. *)
and chains_of t m =
  let ch = Atomic.get m.cm_chains in
  if ch != untranslated then ch
  else
    Mutex.protect t.shared.reg_mu (fun () ->
        let ch = Atomic.get m.cm_chains in
        if ch != untranslated then ch
        else begin
          let ch = translate t.mem m in
          Atomic.set m.cm_chains ch;
          ch
        end)

(* The body of the control transfer [k] of a module at [base]. *)
and transfer_body ch base tb k : t -> unit =
  let p = k lsl 4 in
  let o0 = r0 tb p lsl 3 in
  let ra = Int64.of_int (base + ret_at tb p) and far = base + off_at tb p in
  match op_at tb p with
  | Jmp ->
      let e = tgt_at tb p in
      fun t -> enter ch e t
  | Jcc -> jcc_body ch (cond_at tb p) ~taken:(tgt_at tb p) ~fall:(k + 1)
  | Call ->
      let e = tgt_at tb p in
      fun t ->
        push_ret t ra;
        enter ch e t
  | Jmp_far -> fun t -> jump t far
  | Jcc_far ->
      let c = cond_at tb p in
      fun t -> if cond_true t c then jump t far else enter ch (k + 1) t
  | Call_far ->
      fun t ->
        push_ret t ra;
        jump t far
  | Jmp_ind -> fun t -> jump t (Int64.to_int (rd t o0))
  | Jmp_mem ->
      let slot = Int64.to_int (imm tb p) in
      fun t -> jump t (Int64.to_int (load64 t.mem slot))
  | Call_ind ->
      fun t ->
        push_ret t ra;
        let a = Int64.to_int (rd t o0) in
        if is_runtime_addr a then begin
          (* A runtime callee returns straight into the next chain. The
             return is taken before the call, as [goto] takes it, so the
             callee runs on the caller's stack; nothing reads the return
             address after the call, when on a64 a callee that calls back
             into generated code has overwritten LR. *)
          ignore (pop_ret t);
          dispatch_runtime t a;
          enter ch (k + 1) t
        end
        else jump t a
  | Ret -> fun t -> jump t (Int64.to_int (pop_ret t))
  | _ -> invalid_arg "Emu.transfer_body: not a control transfer"

(* Translate [m]: the chain counts of every index, then one body per
   instruction, chained as described under "threaded code". *)
and translate mem m =
  let tb = m.cm_table in
  let n = table_length tb in
  let live = flags_live_after tb n in
  let cycles = Array.make (n + 1) 0 and insts = Array.make (n + 1) 0 in
  for k = n - 1 downto 0 do
    let p = k lsl 4 in
    let c = cost_at tb p in
    if ends_chain (op_at tb p) || k = n - 1 then begin
      cycles.(k) <- c;
      insts.(k) <- 1
    end
    else begin
      cycles.(k) <- c + cycles.(k + 1);
      insts.(k) <- 1 + insts.(k + 1)
    end
  done;
  (* The chain from [k] would cross [t.fuel]: give its charge back, run the
     instructions fuel still allows, then charge the one that runs out and
     trap. The prefix never reaches the chain's transfer. *)
  let fuel_stop t k =
    if k = n then fell_off t;
    t.cycles <- t.cycles - cycles.(k);
    t.icount <- t.icount - insts.(k);
    let stop = k + max 0 (t.fuel - t.icount) in
    let run_out t =
      t.cycles <- t.cycles + cost_at tb (stop lsl 4);
      t.icount <- t.icount + 1;
      raise (Trap "fuel exhausted")
    in
    let prefix = ref run_out and uc = ref 0 in
    for j = stop - 1 downto k do
      prefix := op_body mem tb j ~live:live.(j) ~next:!prefix ~uc:!uc ~un:(stop - 1 - j);
      uc := !uc + cost_at tb (j lsl 4)
    done;
    t.cycles <- t.cycles + !uc;
    t.icount <- t.icount + (stop - k);
    !prefix t
  in
  let body = Array.make (n + 1) fell_off in
  let ch = { ch_body = body; ch_cycles = cycles; ch_insts = insts; ch_fuel_stop = fuel_stop } in
  for k = n - 1 downto 0 do
    let p = k lsl 4 in
    let op = op_at tb p in
    body.(k) <-
      (if ends_chain op then transfer_body ch m.cm_base tb k
       else
         let uc = cycles.(k) - cost_at tb p and un = insts.(k) - 1 in
         if
           (op == Cmp_r || op == Cmp_i)
           && un = 1
           && op_at tb ((k + 1) lsl 4) == Jcc
           && live.(k + 1) = 0
         then
           let q = (k + 1) lsl 4 in
           cmp_jcc_body ch (r0 tb p lsl 3)
             (if op == Cmp_r then r1 tb p lsl 3 else -1)
             (imm tb p) (cond_at tb q) ~taken:(tgt_at tb q) ~fall:(k + 2)
         else
           match
             if un >= 2 then pair_body mem tb k ~live:live.(k + 1) ~next:body.(k + 2) ~uc ~un
             else None
           with
           | Some b -> b
           | None -> op_body mem tb k ~live:live.(k) ~next:body.(k + 1) ~uc ~un)
  done;
  ch

(** Run starting at [addr] until control returns to the sentinel.
    Reentrant: runtime functions may use {!call_generated}. The module's
    translation (see "threaded code") runs the code and allocates
    nothing per instruction. *)
and run_at t addr =
  let m = find_mod t addr in
  let k = idx_of m addr in
  enter (chains_of t m) k t

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

(** {!call_generated} of a function that takes two [int]s and returns an
    [int] in the first return register, with {!arg_int}'s and
    {!set_ret_int}'s conventions: nothing is boxed on the way in or out,
    where [call_generated] takes an [int64] array and returns a pair. A
    runtime function that calls back into generated code once per
    element ([umbra_sort]'s comparator) uses it. *)
let call_generated_int t ~addr a b =
  let tgt = t.target in
  set64u t.regs (tgt.Target.arg_regs.(0) lsl 3) (Int64.of_int a);
  set64u t.regs (tgt.Target.arg_regs.(1) lsl 3) (Int64.of_int b);
  if is_runtime_addr addr then dispatch_runtime t addr
  else begin
    push_ret t (Int64.of_int sentinel);
    run_at t addr
  end;
  Int64.to_int (get64u t.regs (tgt.Target.ret_regs.(0) lsl 3))

(* the public accessors, out of line: host callers see plain functions.
   They refuse {!zero_reg}, which the register file holds past the
   addressable registers. *)
let addressable r = if r >= num_regs then invalid_arg "Emu: register out of range"
let reg t r = addressable r; reg t r
let set_reg t r v = addressable r; set_reg t r v

(* Argument [k] and the first return register as [int]s, for runtime
   functions: an [int] crosses into another compilation unit unboxed,
   where {!reg} and {!set_reg} box every [int64] (see "hot accessors").
   The register's top bit is dropped, as [Int64.to_int] drops it, so
   these carry addresses, sizes, counts and flags. *)
let arg_int t k = Int64.to_int (get64u t.regs (t.target.Target.arg_regs.(k) lsl 3))
let set_ret_int t v = set64u t.regs (t.target.Target.ret_regs.(0) lsl 3) (Int64.of_int v)
