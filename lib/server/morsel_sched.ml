(** Intra-query morsel dispatcher: a small pool of execution lanes that a
    resumable execution ({!Exec}) fans pipeline bodies out over.

    Each lane is a fresh {!Qcomp_vm.Emu.context} over the worker's shared
    machine — own registers, flags and cycle counters over shared linear
    memory and the shared code layout — so lanes can run the same compiled
    pipeline function concurrently on disjoint morsels.

    Two modes:
    - simulated (default): lanes run sequentially on the calling domain in
      lane order. Deterministic; wall-clock cycles are modeled as the
      max over lanes by the caller. This is what the discrete-event server
      driver uses.
    - parallel: lanes 1.. run on freshly spawned domains while the caller
      runs lane 0 (the real-domain pool driver). Morsels are then claimed
      dynamically from a shared counter (work stealing-ish: a lane whose
      morsels filter down to little work simply claims more). *)

open Qcomp_vm
module Engine = Qcomp_engine.Engine

type t = {
  db : Engine.db;
  lanes : int;
  emus : Emu.t array;
  parallel : bool;
}

let create ?(parallel = false) (db : Engine.db) ~lanes =
  if lanes < 1 then invalid_arg "Morsel_sched.create: lanes < 1";
  (* contexts are created once and reused across queries: each owns a VM
     stack carved out of linear memory until [release] *)
  let emus = Array.init lanes (fun _ -> Emu.context db.Engine.emu) in
  { db; lanes; emus; parallel }

(** Release every lane's context (its VM stack); the scheduler must not
    run again. *)
let release t = Array.iter Emu.release_context t.emus

let lanes t = t.lanes
let parallel t = t.parallel
let lane_emu t i = t.emus.(i)

(** Run [f] on every lane index — concurrently on real domains in parallel
    mode (caller takes lane 0), sequentially in lane order otherwise. A
    lane's exception is re-raised only after every lane has finished, so a
    trapping query cannot orphan a domain. *)
let map t (f : int -> 'a) : 'a array =
  if (not t.parallel) || t.lanes = 1 then Array.init t.lanes f
  else begin
    let wrap i () = try Ok (f i) with e -> Error e in
    let doms =
      Array.init (t.lanes - 1) (fun i -> Domain.spawn (wrap (i + 1)))
    in
    let r0 = wrap 0 () in
    let rs = Array.append [| r0 |] (Array.map Domain.join doms) in
    Array.map (function Ok v -> v | Error e -> raise e) rs
  end

(** Shared morsel claim over a row range: lanes [take] disjoint
    [size]-row morsels until the range drains. *)
type claim = { next : int Atomic.t; hi : int; size : int }

let claim ~lo ~hi ~size =
  if size <= 0 then invalid_arg "Morsel_sched.claim: size <= 0";
  { next = Atomic.make lo; hi; size }

let take c =
  let lo = Atomic.fetch_and_add c.next c.size in
  if lo >= c.hi then None else Some (lo, min (lo + c.size) c.hi)
