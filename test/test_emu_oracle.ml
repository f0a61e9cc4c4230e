(* Differential emulator testing: random straight-line programs in a small
   well-defined DSL are lowered to each target's instruction forms,
   assembled, executed by the emulator, and compared against a direct OCaml
   evaluation of the DSL. This pins the ALU/compare/select semantics that
   every back-end relies on (canonical sign-extension, shift masking,
   rotate, flag-based selects). *)

open Qcomp_vm

type op =
  | Ldi of int * int64
  | Mov of int * int
  | Alu of Minst.alu * int * int * int  (** d, a, b — three-address, d<>b *)
  | CmpSet of Minst.cond * int * int * int  (** d = (a cond b) *)
  | Sel of Minst.cond * int * int * int * int  (** d = (a cond b) ? d : y *)
  | Ext of int * int * int * bool  (** d, s, bits, signed *)

(* registers: avoid sp on both targets (x64: 4, a64: 31) and keep within
   the x64 file so one program runs on both targets *)
let regs = [| 0; 1; 2; 3; 5; 6; 7; 8; 9; 12; 13 |]

let gen_op =
  let open QCheck2.Gen in
  let r = map (Array.get regs) (int_bound (Array.length regs - 1)) in
  let alu =
    oneofl Minst.[ Add; Sub; And; Or; Xor; Mul; Shl; Shr; Sar; Ror ]
  in
  let cond =
    oneofl Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
  in
  oneof
    [
      map2 (fun d v -> Ldi (d, v)) r ui64;
      map2 (fun d s -> Mov (d, s)) r r;
      (map3 (fun op (d, a) b -> Alu (op, d, a, b)) alu (pair r r) r
      |> map (function Alu (op, d, a, b) when d = b -> Alu (op, d, a, a) | o -> o));
      map3 (fun c d (a, b) -> CmpSet (c, d, a, b)) cond r (pair r r);
      map3
        (fun c (d, y) (a, b) -> Sel (c, d, a, b, y))
        cond (pair r r) (pair r r);
      map3 (fun d s (bits, signed) -> Ext (d, s, bits, signed)) r r
        (pair (oneofl [ 8; 16; 32 ]) bool);
    ]

let gen_prog = QCheck2.Gen.(list_size (int_range 1 30) gen_op)

(* ---- reference evaluation ---- *)

let eval_cond (c : Minst.cond) a b =
  match c with
  | Minst.Eq -> Int64.equal a b
  | Minst.Ne -> not (Int64.equal a b)
  | Minst.Slt -> Int64.compare a b < 0
  | Minst.Sle -> Int64.compare a b <= 0
  | Minst.Sgt -> Int64.compare a b > 0
  | Minst.Sge -> Int64.compare a b >= 0
  | Minst.Ult -> Int64.unsigned_compare a b < 0
  | Minst.Ule -> Int64.unsigned_compare a b <= 0
  | Minst.Ugt -> Int64.unsigned_compare a b > 0
  | Minst.Uge -> Int64.unsigned_compare a b >= 0
  | _ -> assert false

let eval_alu (op : Minst.alu) a b =
  match op with
  | Minst.Add -> Int64.add a b
  | Minst.Sub -> Int64.sub a b
  | Minst.And -> Int64.logand a b
  | Minst.Or -> Int64.logor a b
  | Minst.Xor -> Int64.logxor a b
  | Minst.Mul -> Int64.mul a b
  | Minst.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Minst.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Minst.Sar -> Int64.shift_right a (Int64.to_int b land 63)
  | Minst.Ror ->
      let n = Int64.to_int b land 63 in
      if n = 0 then a
      else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))
  | _ -> assert false

let eval_ext v ~bits ~signed =
  let shift = 64 - bits in
  if signed then Int64.shift_right (Int64.shift_left v shift) shift
  else Int64.shift_right_logical (Int64.shift_left v shift) shift

let reference_into f prog =
  List.iter
    (fun op ->
      match op with
      | Ldi (d, v) -> f.(d) <- v
      | Mov (d, s) -> f.(d) <- f.(s)
      | Alu (op, d, a, b) -> f.(d) <- eval_alu op f.(a) f.(b)
      | CmpSet (c, d, a, b) -> f.(d) <- (if eval_cond c f.(a) f.(b) then 1L else 0L)
      | Sel (c, d, a, b, y) -> f.(d) <- (if eval_cond c f.(a) f.(b) then f.(d) else f.(y))
      | Ext (d, s, bits, signed) -> f.(d) <- eval_ext f.(s) ~bits ~signed)
    prog;
  f.(0)

let reference prog = reference_into (Array.make 16 0L) prog

(* ---- lowering ---- *)

let lower_x64 op =
  match op with
  | Ldi (d, v) -> [ Minst.Mov_ri (d, v) ]
  | Mov (d, s) -> [ Minst.Mov_rr (d, s) ]
  | Alu (op, d, a, b) ->
      (* two-address: d <> b by construction *)
      [ Minst.Mov_rr (d, a); Minst.Alu_rr (op, d, b) ]
  | CmpSet (c, d, a, b) -> [ Minst.Cmp_rr (a, b); Minst.Setcc (c, d) ]
  | Sel (c, d, a, b, y) -> [ Minst.Cmp_rr (a, b); Minst.Csel { cond = c; dst = d; a = d; b = y } ]
  | Ext (d, s, bits, signed) -> [ Minst.Ext { dst = d; src = s; bits; signed } ]

let lower_a64 op =
  match op with
  | Ldi (d, v) -> [ Minst.Mov_ri (d, v) ]
  | Mov (d, s) -> [ Minst.Mov_rr (d, s) ]
  | Alu (op, d, a, b) -> [ Minst.Alu_rrr (op, d, a, b) ]
  | CmpSet (c, d, a, b) -> [ Minst.Cmp_rr (a, b); Minst.Setcc (c, d) ]
  | Sel (c, d, a, b, y) -> [ Minst.Cmp_rr (a, b); Minst.Csel { cond = c; dst = d; a = d; b = y } ]
  | Ext (d, s, bits, signed) -> [ Minst.Ext { dst = d; src = s; bits; signed } ]

let lower (target : Target.t) =
  match target.Target.arch with Target.X64 -> lower_x64 | Target.A64 -> lower_a64

let assemble target insts =
  let a = Asm.create target in
  List.iter (Asm.emit a) insts;
  Asm.finish a

let straight target prog = List.concat_map (lower target) prog @ [ Minst.Ret ]

let fresh target = Emu.create ~mem_size:(1 lsl 18) target

let run_code emu code =
  let base = Code_region.base (Emu.register_code emu code) in
  fst (Emu.call emu ~addr:base ~args:[||])

let run_emu target insts = run_code (fresh target) (assemble target insts)

(* ---- branches and loops ----

   A branchy program is a list of steps. [Skip] is a forward branch over
   the next [n] steps, [Loop] runs a straight-line body [n >= 1] times on
   a counter register no op touches. A loop puts the flag producer (the
   counter's decrement) and the branch reading it in different chains: a
   [jmp] to the next instruction sits between them. A skip does so when
   [split] holds, and otherwise lets the compare fuse with its branch. *)

type step =
  | Op of op
  | Skip of Minst.cond * int * int * int * bool  (** cond, a, b, steps skipped, split *)
  | Loop of int * op list

let counter = 14

let gen_step =
  let open QCheck2.Gen in
  let r = map (Array.get regs) (int_bound (Array.length regs - 1)) in
  let cond = oneofl Minst.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ] in
  frequency
    [
      (6, map (fun o -> Op o) gen_op);
      ( 2,
        map3 (fun c (a, b) (n, split) -> Skip (c, a, b, n, split)) cond (pair r r)
          (pair (int_range 0 4) bool) );
      (1, map2 (fun n body -> Loop (n, body)) (int_range 1 5) (list_size (int_range 1 6) gen_op));
    ]

let gen_branchy = QCheck2.Gen.(list_size (int_range 1 20) gen_step)

let reference_branchy steps =
  let f = Array.make 16 0L in
  let step op = ignore (reference_into f [ op ]) in
  let rec go = function
    | [] -> ()
    | Op op :: rest ->
        step op;
        go rest
    | Skip (c, a, b, n, _) :: rest ->
        go (if eval_cond c f.(a) f.(b) then List.filteri (fun i _ -> i >= n) rest else rest)
    | Loop (n, body) :: rest ->
        for _ = 1 to n do
          List.iter step body
        done;
        go rest
  in
  go steps;
  f.(0)

let assemble_branchy (target : Target.t) steps =
  let a = Asm.create target in
  let emit = List.iter (Asm.emit a) in
  let labels = Array.init (List.length steps + 1) (fun _ -> Asm.new_label a) in
  let split () =
    let l = Asm.new_label a in
    Asm.jmp a l;
    Asm.bind a l
  in
  List.iteri
    (fun i s ->
      Asm.bind a labels.(i);
      match s with
      | Op op -> emit (lower target op)
      | Skip (c, x, y, n, split_it) ->
          emit [ Minst.Cmp_rr (x, y) ];
          if split_it then split ();
          Asm.jcc a c labels.(min (i + 1 + n) (List.length steps))
      | Loop (n, body) ->
          emit [ Minst.Mov_ri (counter, Int64.of_int n) ];
          let head = Asm.new_label a in
          Asm.bind a head;
          emit (List.concat_map (lower target) body);
          emit
            [
              (match target.Target.arch with
              | Target.X64 -> Minst.Alu_ri (Minst.Sub, counter, 1L)
              | Target.A64 -> Minst.Alu_rri (Minst.Sub, counter, counter, 1L));
            ];
          split ();
          Asm.jcc a Minst.Ne head)
    steps;
  Asm.bind a labels.(List.length steps);
  Asm.emit a Minst.Ret;
  Asm.finish a

(* A loop whose exit test reads a wrong flag would spin: fuel bounds it
   far above any generated program's length. *)
let run_branchy target steps =
  let emu = fresh target in
  emu.Emu.fuel <- 100_000;
  run_code emu (assemble_branchy target steps)

(* ---- exact counts at a fault and at every fuel stop ---- *)

(* The record op an instruction decodes to, for {!Emu.cost_of}. *)
let op_of (i : Minst.t) : Emu.op =
  match i with
  | Minst.Mov_ri _ -> Emu.Mov_i
  | Minst.Movz _ -> Emu.Movz
  | Minst.Movk _ -> Emu.Movk
  | Minst.Mov_rr _ -> Emu.Mov_r
  | Minst.Alu_rr (op, _, _) | Minst.Alu_rrr (op, _, _, _) -> Emu.alu_r op
  | Minst.Alu_ri (op, _, _) | Minst.Alu_rri (op, _, _, _) -> Emu.alu_i op
  | Minst.Cmp_rr _ -> Emu.Cmp_r
  | Minst.Setcc _ -> Emu.Setcc
  | Minst.Csel _ -> Emu.Csel
  | Minst.Ext { bits; signed; _ } -> Emu.ext_op (bits lor if signed then 0x80 else 0)
  | Minst.Ld { size = 8; _ } -> Emu.Ld8
  | Minst.Ldx { size = 1; _ } -> Emu.Ldx1
  | Minst.Ldx { size = 2; _ } -> Emu.Ldx2
  | Minst.Ldx { size = 4; _ } -> Emu.Ldx4
  | Minst.Ldx _ -> Emu.Ldx8
  | Minst.St { size = 8; _ } -> Emu.St8
  | Minst.Ret -> Emu.Ret
  | Minst.Call_ind _ -> Emu.Call_ind
  | i -> Alcotest.failf "op_of: %s" (Format.asprintf "%a" (Minst.pp Target.x64) i)

(* the cycles of the first [k] instructions of a decoded blob *)
let prefix_cycles insts k =
  let c = ref 0 in
  for j = 0 to k - 1 do
    c := !c + Emu.cost_of (op_of insts.(j))
  done;
  !c

(* A program that loads from the unmapped first page after [pos] ops. The
   load follows nothing in particular, a load or a store of the stack, so
   it also faults as the second half of a fused pair. *)
let gen_faulting = QCheck2.Gen.(triple gen_prog (int_bound 30) (int_bound 2))

let faulting_load (target : Target.t) prog pos before_load =
  let sp = target.Target.sp in
  let before = List.filteri (fun i _ -> i < pos) prog
  and after = List.filteri (fun i _ -> i >= pos) prog in
  List.concat_map (lower target) before
  @ [ Minst.Mov_ri (15, 0L) ]
  @ (match before_load with
    | 0 -> []
    | 1 -> [ Minst.Ld { dst = 1; base = sp; off = 0; size = 8; sext = false } ]
    | _ -> [ Minst.St { src = 1; base = sp; off = 0; size = 8 } ])
  @ [ Minst.Ld { dst = 0; base = 15; off = 8; size = 8; sext = false } ]
  @ straight target after

let fault_counts_exact target (prog, pos, before_load) =
  let code = assemble target (faulting_load target prog pos before_load) in
  let insts, _ = Emu.decode_all target code in
  let load = ref (-1) in
  Array.iteri (fun j i -> match i with Minst.Ld { base = 15; _ } -> load := j | _ -> ()) insts;
  let emu = fresh target in
  match run_code emu code with
  | _ -> false
  | exception Memory.Fault _ ->
      Emu.instructions_executed emu = !load + 1
      && Emu.cycles emu = prefix_cycles insts (!load + 1)

let fuel_stops_exact_in target insts =
  let code = assemble target insts in
  let insts, _ = Emu.decode_all target code in
  let emu = fresh target in
  let base = Code_region.base (Emu.register_code emu code) in
  let stops_at k =
    Emu.reset_counters emu;
    emu.Emu.fuel <- k;
    match Emu.call emu ~addr:base ~args:[||] with
    | _ -> false
    | exception Emu.Trap "fuel exhausted" ->
        Emu.instructions_executed emu = k + 1 && Emu.cycles emu = prefix_cycles insts (k + 1)
  in
  List.for_all stops_at (List.init (Array.length insts) Fun.id)

let fuel_stops_exact target prog = fuel_stops_exact_in target (straight target prog)

(* ---- indexed loads ---- *)

let ldx ?(dst = 0) ~base ~index ~scale ~off ~size () =
  Minst.Ldx { dst; base; index; scale; off; size; sext = false }

(* [prog] with a faulting indexed load of address 8 after its first [pos]
   ops; right before the load nothing, a load or a valid indexed load of
   the stack, and right after it a move when [then_move] holds, so the
   faulting one also runs as either half of a pair. On x64 the load is
   [index * 8 + 8] with index and base zero, and [based] picks the form
   with a base register; on a64, which has only [base + index lsl k], the
   base is zero and [based] picks k = log2 of the size over k = 0. *)
let gen_faulting_indexed =
  QCheck2.Gen.(pair gen_faulting (triple bool (oneofl [ 1; 2; 4; 8 ]) bool))

let faulting_indexed (target : Target.t) (prog, pos, before_load) (based, size, then_move) =
  let sp = target.Target.sp in
  let before = List.filteri (fun i _ -> i < pos) prog
  and after = List.filteri (fun i _ -> i >= pos) prog in
  let setup, load =
    match target.Target.arch with
    | Target.X64 ->
        ([ Minst.Mov_ri (15, 0L) ], ldx ~base:(if based then 15 else -1) ~index:15 ~scale:8 ~off:8 ~size ())
    | Target.A64 ->
        let scale = if based then size else 1 in
        ( [ Minst.Mov_ri (15, 0L); Minst.Mov_ri (14, Int64.of_int (8 / scale)) ],
          ldx ~base:15 ~index:14 ~scale ~off:0 ~size () )
  in
  List.concat_map (lower target) before
  @ setup
  @ (match before_load with
    | 0 -> []
    | 1 -> [ Minst.Ld { dst = 1; base = sp; off = 0; size = 8; sext = false } ]
    | _ -> [ ldx ~dst:1 ~base:sp ~index:15 ~scale:8 ~off:0 ~size:8 () ])
  @ [ load ]
  @ (if then_move then [ Minst.Mov_rr (1, 0) ] else [])
  @ straight target after

let indexed_fault_exact target (p, form) =
  let code = assemble target (faulting_indexed target p form) in
  let insts, _ = Emu.decode_all target code in
  let load = ref (-1) in
  Array.iteri (fun j i -> match i with Minst.Ldx { dst = 0; _ } -> load := j | _ -> ()) insts;
  let emu = fresh target in
  match run_code emu code with
  | _ -> false
  | exception Memory.Fault m ->
      let _, size, _ = form in
      m = Printf.sprintf "access of %d bytes at 0x8" size
      && Emu.instructions_executed emu = !load + 1
      && Emu.cycles emu = prefix_cycles insts (!load + 1)

(* [prog] with valid indexed loads of the stack after each op: [sp + 0 *
   8] with a base, and on x64 [sp * 1 + 8] without one, on a64 [sp + 1 lsl
   2] *)
let with_indexed_loads (target : Target.t) prog =
  let sp = target.Target.sp in
  let other =
    match target.Target.arch with
    | Target.X64 -> ldx ~dst:10 ~base:(-1) ~index:sp ~scale:1 ~off:8 ~size:4 ()
    | Target.A64 -> ldx ~dst:10 ~base:sp ~index:14 ~scale:4 ~off:0 ~size:4 ()
  in
  Minst.Mov_ri (15, 0L)
  :: Minst.Mov_ri (14, 1L)
  :: List.concat
       (List.mapi
          (fun k op ->
            lower target op
            @ [
                (if k land 1 = 0 then ldx ~dst:10 ~base:sp ~index:15 ~scale:8 ~off:0 ~size:8 ()
                 else other);
              ])
          prog)
  @ [ Minst.Ret ]

(* ---- runtime calls return straight into the caller ----

   A [Call_ind] into the runtime returns into the caller's next chain
   without looking the caller up again. The same call made through a
   one-instruction stub that tail-jumps into the runtime ([Jmp_ind]) takes
   the general transfer path instead: pop the return address, dispatch,
   find the caller's module and index. Both routes must agree on the
   outcome, and their counts differ by exactly the stub's instruction. *)

type callee =
  | Plain  (** r0 <- 3 * r0 + r1, charges 17 *)
  | Callback  (** calls back into generated code first: on a64 that overwrites LR *)
  | Raises  (** charges 9, then raises *)
  | Removed  (** a slot released by {!Emu.remove_runtime} *)
  | Bad_slot  (** past the end of the runtime table *)

(* [prog] with an indirect call through scratch2 after its first [pos]
   ops; on a64 the caller keeps its own return address in x19 around the
   call, as generated code does. *)
let with_call (target : Target.t) prog pos =
  let before = List.filteri (fun i _ -> i < pos) prog
  and after = List.filteri (fun i _ -> i >= pos) prog in
  let call = Minst.Call_ind target.Target.scratch2 in
  List.concat_map (lower target) before
  @ (match target.Target.arch with
    | Target.X64 -> [ call ]
    | Target.A64 -> [ Minst.Mov_rr (19, Target.lr); call; Minst.Mov_rr (Target.lr, 19) ])
  @ straight target after

(* Run [code] with the call going to [callee] directly or through the
   stub; returns the outcome, cycles and instructions. Both routes
   register the same modules in the same order. *)
let run_call (target : Target.t) callee code ~via_stub ~fuel =
  let emu = fresh target in
  let module_of insts = Code_region.base (Emu.register_code emu (assemble target insts)) in
  let callback =
    module_of
      [ Minst.Mov_rr (0, target.Target.arg_regs.(0)); Minst.Alu_ri (Minst.Add, 0, 100L); Minst.Ret ]
  in
  let rt =
    match callee with
    | Plain ->
        Emu.add_runtime emu "plain" (fun e ->
            Emu.set_reg e 0 (Int64.add (Int64.mul (Emu.reg e 0) 3L) (Emu.reg e 1));
            Emu.charge e 17)
    | Callback ->
        Emu.add_runtime emu "callback" (fun e ->
            let r0 = Emu.reg e 0 in
            let r, _ = Emu.call_generated e ~addr:callback ~args:[| Emu.reg e 1 |] in
            Emu.set_reg e 0 (Int64.add r r0);
            Emu.charge e 5)
    | Raises ->
        Emu.add_runtime emu "raises" (fun e ->
            Emu.charge e 9;
            failwith "raised mid-call")
    | Removed ->
        let a = Emu.add_runtime emu "removed" (fun _ -> ()) in
        Emu.remove_runtime emu a;
        a
    | Bad_slot -> Emu.runtime_addr 1000
  in
  let base = Code_region.base (Emu.register_code emu code) in
  let stub = module_of [ Minst.Jmp_ind target.Target.scratch ] in
  Emu.set_reg emu target.Target.scratch rt;
  Emu.set_reg emu target.Target.scratch2 (if via_stub then Int64.of_int stub else rt);
  emu.Emu.fuel <- fuel;
  let outcome =
    match Emu.call emu ~addr:base ~args:[||] with
    | r, _ -> Ok r
    | exception (Emu.Trap m | Failure m) -> Error m
  in
  (outcome, Emu.cycles emu, Emu.instructions_executed emu)

(* The direct return against the stub route, and against the counts the
   cost model gives: with [fuel_after], fuel runs out on the instruction
   right after the call. *)
let direct_return_exact target callee ~fuel_after (prog, pos) =
  let code = assemble target (with_call target prog (pos mod (List.length prog + 1))) in
  let insts, _ = Emu.decode_all target code in
  let n = Array.length insts in
  let call = ref (-1) in
  Array.iteri (fun j i -> match i with Minst.Call_ind _ -> call := j | _ -> ()) insts;
  let fuel extra = if fuel_after then !call + 1 + extra else -1 in
  let o1, c1, n1 = run_call target callee code ~via_stub:false ~fuel:(fuel 0) in
  let o2, c2, n2 = run_call target callee code ~via_stub:true ~fuel:(fuel 1) in
  let dispatch = Emu.runtime_dispatch_cost in
  let upto k = prefix_cycles insts k and after_call = !call + 1 in
  let trap msg = function Error m -> m = msg | Ok _ -> false in
  let returned = Result.is_ok in
  (* the outcome and counts of the direct route *)
  let outcome_ok, cycles, count =
    match (callee, fuel_after) with
    | Plain, false -> (returned, upto n + dispatch + 17, n)
    | Plain, true -> (trap "fuel exhausted", upto (after_call + 1) + dispatch + 17, after_call + 1)
    | Raises, _ -> (trap "raised mid-call", upto after_call + dispatch + 9, after_call)
    | Removed, _ -> (trap "use-after-free runtime slot 0", upto after_call + dispatch, after_call)
    | Bad_slot, _ -> (trap "call to bad runtime slot 1000", upto after_call, after_call)
    | Callback, _ ->
        (* the callback's three instructions run inside the call *)
        let cb = Emu.cost_of Emu.Mov_r + Emu.cost_of Emu.Add_i + Emu.cost_of Emu.Ret in
        (returned, upto n + dispatch + 5 + cb, n + 3)
  in
  o1 = o2 && c2 = c1 + Emu.cost_of Emu.Jmp_ind && n2 = n1 + 1 && outcome_ok o1 && c1 = cycles
  && n1 = count

let gen_call = QCheck2.Gen.(pair gen_prog (int_bound 30))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:400 ~name gen f)

let suite =
  [
    prop "x64 straight-line programs match the reference" gen_prog (fun prog ->
        Int64.equal (run_emu Target.x64 (straight Target.x64 prog)) (reference prog));
    prop "a64 straight-line programs match the reference" gen_prog (fun prog ->
        Int64.equal (run_emu Target.a64 (straight Target.a64 prog)) (reference prog));
    prop "x64 and a64 agree with each other" gen_prog (fun prog ->
        Int64.equal
          (run_emu Target.x64 (straight Target.x64 prog))
          (run_emu Target.a64 (straight Target.a64 prog)));
    prop "x64 programs with branches and a loop match the reference" gen_branchy (fun steps ->
        Int64.equal (run_branchy Target.x64 steps) (reference_branchy steps));
    prop "a64 programs with branches and a loop match the reference" gen_branchy (fun steps ->
        Int64.equal (run_branchy Target.a64 steps) (reference_branchy steps));
    prop "x64 cycles and instructions at a faulting load are the prefix's" gen_faulting
      (fault_counts_exact Target.x64);
    prop "a64 cycles and instructions at a faulting load are the prefix's" gen_faulting
      (fault_counts_exact Target.a64);
    prop "x64 fuel k traps after k + 1 instructions and their cycles" gen_prog
      (fuel_stops_exact Target.x64);
    prop "a64 fuel k traps after k + 1 instructions and their cycles" gen_prog
      (fuel_stops_exact Target.a64);
  ]
  @ List.concat_map
      (fun (target : Target.t) ->
        let name = match target.Target.arch with Target.X64 -> "x64" | Target.A64 -> "a64" in
        [
          prop (name ^ " cycles and instructions at a faulting indexed load are the prefix's")
            gen_faulting_indexed (indexed_fault_exact target);
          prop (name ^ " fuel k traps exactly in programs with indexed loads") gen_prog (fun prog ->
              fuel_stops_exact_in target (with_indexed_loads target prog));
          prop (name ^ " indexed loads leave the reference's result") gen_prog (fun prog ->
              Int64.equal (run_emu target (with_indexed_loads target prog)) (reference prog));
        ])
      [ Target.x64; Target.a64 ]
  @ List.concat_map
      (fun (target : Target.t) ->
        List.map
          (fun (what, callee, fuel_after) ->
            prop
              (Printf.sprintf "%s runtime call returning directly: %s" target.Target.name what)
              gen_call
              (direct_return_exact target callee ~fuel_after))
          [
            ("plain callee, exact counts", Plain, false);
            ("callee calling back into generated code", Callback, false);
            ("callee raising mid-call", Raises, false);
            ("fuel stop right after the call", Plain, true);
            ("removed slot traps", Removed, false);
            ("slot past the table traps", Bad_slot, false);
          ])
      [ Target.x64; Target.a64 ]
