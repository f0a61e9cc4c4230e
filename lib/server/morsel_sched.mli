(** Intra-query morsel dispatcher: execution lanes (one
    {!Qcomp_vm.Emu.context} each over the worker's shared machine) that
    {!Exec} fans morsel-parallel pipeline bodies out over. *)

open Qcomp_vm

type t

(** [create ?parallel db ~lanes] builds a lane pool over [db]'s machine.
    With [parallel:false] (default) lanes run sequentially on the calling
    domain — deterministic, for the discrete-event driver; with
    [parallel:true] lanes 1.. run on spawned domains while the caller runs
    lane 0. Lane contexts live until {!release}: create one scheduler per
    worker and reuse it across queries. Raises [Invalid_argument] on [lanes < 1]. *)
val create : ?parallel:bool -> Qcomp_engine.Engine.db -> lanes:int -> t

(** Give back the lane contexts' stacks ({!Qcomp_vm.Emu.release_context})
    once the driver that created the scheduler is done with it. Raises
    [Invalid_argument] on a second release. *)
val release : t -> unit

val lanes : t -> int
val parallel : t -> bool

(** The lane's private execution context (shared memory and code). *)
val lane_emu : t -> int -> Emu.t

(** Run [f] on every lane index; parallel mode spawns domains for lanes
    1.. and re-raises a lane's exception only after all lanes finished. *)
val map : t -> (int -> 'a) -> 'a array

(** Shared morsel claim over a row range, for dynamic (work-stealing-ish)
    assignment: lanes [take] disjoint morsels until the range drains. *)
type claim

val claim : lo:int -> hi:int -> size:int -> claim
val take : claim -> (int * int) option
