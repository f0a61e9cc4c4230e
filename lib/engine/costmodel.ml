(** Deterministic cost model: modelled compile seconds and execution
    rates derived from the pinned cycle tables — the inputs of every tier
    decision ({!Qcomp_engine.Engine.cheapest_rung}).

    The serving simulator needs compile durations that are reproducible
    bit-for-bit across runs, so instead of feeding measured wall-clock
    (which varies run to run) it charges each compilation a cost that is a
    pure function of the IR module's size and the back-end's
    per-function/per-instruction throughput. The coefficients are
    calibrated against this repo's measured compile-time totals over the
    TPC-DS-like workload (EXPERIMENTS.md, mirroring Table III of the
    paper): DirectEmit compiles a few times slower than the interpreter
    translates, Cranelift another ~20x slower, LLVM -O0 a further ~3x, LLVM
    -O2 ~10x beyond that, and GCC slowest of all.

    Execution needs no timing model — the emulator's cycles are already
    deterministic — only a rate to predict with before the cycles exist.
    Each back-end's rate is the interpreter's total over the 22 TPC-H
    queries at sf 1 divided by the back-end's own total, both taken from
    the table [test_cycle_model] pins; that test also checks the totals
    here against its table, so a change that moves a back-end's cycles
    moves its rate. *)

type coeff = {
  per_module : float;  (** fixed setup: context, module, symbol table [s] *)
  per_function : float;  (** per generated function [s] *)
  per_inst : float;  (** per Umbra-IR instruction [s] *)
}

(* Ordered cheap-to-expensive; the ratios matter more than the absolute
   values because every serving policy is charged from the same table. *)
let coeffs = function
  | "interpreter" -> { per_module = 1e-6; per_function = 2e-7; per_inst = 2e-8 }
  (* copy-and-patch: per-query work is blit + hole patching, an order of
     magnitude under DirectEmit's encode loop (BENCH_stencil.json) *)
  | "stencil" -> { per_module = 2e-7; per_function = 6e-8; per_inst = 7e-9 }
  | "directemit" -> { per_module = 2e-6; per_function = 6e-7; per_inst = 7e-8 }
  | "cranelift" -> { per_module = 1e-5; per_function = 5e-6; per_inst = 1.5e-6 }
  | "llvm-cheap" -> { per_module = 6e-5; per_function = 1.5e-5; per_inst = 4.5e-6 }
  | "llvm-opt" -> { per_module = 2e-4; per_function = 6e-5; per_inst = 4e-5 }
  | "gcc" -> { per_module = 1.5e-3; per_function = 2.5e-4; per_inst = 1e-4 }
  | other ->
      (* fail loud: a renamed or unregistered back-end silently getting
         mid-range coefficients would skew every simulated schedule *)
      invalid_arg ("Costmodel.coeffs: no coefficients for back-end " ^ other)

let module_size (m : Qcomp_ir.Func.modul) =
  let funcs = Qcomp_support.Vec.length m.Qcomp_ir.Func.funcs in
  let insts = ref 0 in
  Qcomp_support.Vec.iter
    (fun f -> insts := !insts + Qcomp_ir.Func.num_insts f)
    m.Qcomp_ir.Func.funcs;
  (funcs, !insts)

(** Simulated seconds to compile [m] with the named back-end. *)
let compile_seconds ~backend (m : Qcomp_ir.Func.modul) =
  let c = coeffs backend in
  let funcs, insts = module_size m in
  c.per_module
  +. (c.per_function *. float_of_int funcs)
  +. (c.per_inst *. float_of_int insts)

(** Simulated seconds to bind a parameter vector into an already-compiled
    shape: a re-link of the artifact that blits the text and patches a
    handful of 8-byte immediate holes. Three orders of magnitude under the
    cheapest back-end compile (the stencil generator's per-query work is
    itself mostly the same blit), so a shape hit is priced as near-free —
    the whole point of caching per shape instead of per query. *)
let bind_seconds = 2e-6

(* ---------------- execution rates ---------------- *)

(** The nominal clock every simulated duration is quoted at (the paper's
    2 GHz Xeon; {!Qcomp_engine.Engine.cycles_to_seconds} uses the same). *)
let clock_hz = 2.0e9

(** Summed exec cycles of the 22 TPC-H queries at sf 1 per back-end, as
    [test_cycle_model] pins them. The interpreter runs the same bytecode on
    both targets. *)
let pinned_cycles (target : Qcomp_vm.Target.t) =
  match target.Qcomp_vm.Target.arch with
  | Qcomp_vm.Target.X64 ->
      [
        ("interpreter", 13_466_779);
        ("stencil", 8_457_578);
        ("directemit", 3_852_309);
        ("cranelift", 5_750_145);
        ("llvm-opt", 5_661_116);
        ("llvm-cheap", 8_648_016);
        ("gcc", 7_992_236);
      ]
  | Qcomp_vm.Target.A64 ->
      [
        ("interpreter", 13_466_779);
        ("cranelift", 4_931_772);
        ("llvm-opt", 5_565_461);
        ("llvm-cheap", 7_884_672);
        ("gcc", 7_084_033);
      ]

(** Summed {!Qcomp_engine.Engine.estimated_work} of the same 22 plans at
    sf 1: the denominator of [cycles_per_work]. *)
let pinned_work = 81_320

(* Interpreter cycles per unit of estimated work, the prior a query is
   priced with before it has run: about 165.6. *)
let cycles_per_work =
  float_of_int (List.assoc "interpreter" (pinned_cycles Qcomp_vm.Target.x64))
  /. float_of_int pinned_work

(** Relative execution throughput of the named back-end's code on
    [target], interpreter = 1.0: the interpreter's pinned total over its own. *)
let exec_rate target name =
  let totals = pinned_cycles target in
  match List.assoc_opt name totals with
  | Some c -> float_of_int (List.assoc "interpreter" totals) /. float_of_int c
  | None ->
      invalid_arg
        (Printf.sprintf "Costmodel.exec_rate: no %s total for back-end %s"
           target.Qcomp_vm.Target.name name)

(** Predicted interpreter seconds of a query whose estimated work is
    [work], before any of it has run. *)
let prior_seconds ~work = float_of_int work *. cycles_per_work /. clock_hz
