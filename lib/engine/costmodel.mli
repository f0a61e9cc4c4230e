(** Deterministic cost model: modelled compile seconds and execution
    rates derived from the pinned cycle tables — the inputs of every tier
    decision ({!Engine.cheapest_rung}).

    Compile seconds are a pure function of IR-module size and per-back-end
    throughput coefficients (calibrated against the repo's measured
    compile-time totals), so serving runs are reproducible bit-for-bit.
    Execution rates are ratios of the TPC-H sf 1 cycle totals that
    [test_cycle_model] pins. Depends only on the IR and the target. *)

(** [(functions, instructions)] of an IR module. *)
val module_size : Qcomp_ir.Func.modul -> int * int

(** Simulated seconds to compile the module with the named back-end.
    @raise Invalid_argument on a name with no coefficient row — a renamed
    back-end must fail loud, not silently skew every schedule. *)
val compile_seconds : backend:string -> Qcomp_ir.Func.modul -> float

(** Simulated seconds to bind a parameter vector into a cached shape
    artifact (re-link: blit text + patch 8-byte holes) — three orders of
    magnitude under the cheapest compile, which is the whole point of
    shape-keyed caching. *)
val bind_seconds : float

(** {1 Execution rates} *)

(** Nominal simulated clock (2 GHz). *)
val clock_hz : float

(** [(back-end, summed exec cycles)] of the 22 TPC-H queries at sf 1 on
    the target, one pair per back-end the target has — the totals of
    [test_cycle_model]'s pinned table. *)
val pinned_cycles : Qcomp_vm.Target.t -> (string * int) list

(** Summed {!Engine.estimated_work} of the 22 TPC-H plans at sf 1. *)
val pinned_work : int

(** Relative execution throughput of the back-end's code on the target,
    interpreter = 1.0: the interpreter's pinned total over the back-end's.
    @raise Invalid_argument on a name the target has no total for. *)
val exec_rate : Qcomp_vm.Target.t -> string -> float

(** [prior_seconds ~work] is the predicted interpreter seconds of a query
    with estimated work [work]: [work] times the pinned interpreter total
    over {!pinned_work} (about 165.6 cycles), at {!clock_hz}. *)
val prior_seconds : work:int -> float
