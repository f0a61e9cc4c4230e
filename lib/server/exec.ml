(** Resumable, morsel-wise execution of a compiled query, with hot-swap.

    {!Qcomp_engine.Engine.execute} runs a query's steps start-to-finish;
    a serving system instead needs to run {e one morsel at a time} so it
    can interleave queries on workers and switch back-ends mid-query. This
    module owns the per-execution state block and walks the step list one
    quantum per {!step} call: a [`Whole] step is one quantum, a [`Table]
    step is one quantum per morsel of rows. Every generated entry function
    takes [(state, from, to)] (Sec. II of the paper), which is exactly what
    makes the cut points free.

    Hot-swap relies on all back-ends compiling the {e same} codegen result:
    function names and the state-slot layout agree, so at any quantum
    boundary the remaining calls can be answered by a different back-end's
    module. {!swap} also re-applies the function-pointer fixups (e.g. sort
    comparators) so indirect calls through the state block target the new
    module from then on. *)

open Qcomp_engine
module Codegen = Qcomp_codegen.Codegen
module Backend = Qcomp_backend.Backend
module Memory = Qcomp_vm.Memory
module Emu = Qcomp_vm.Emu
module Table = Qcomp_storage.Table
module Htable = Qcomp_runtime.Htable
module Tuplebuf = Qcomp_runtime.Tuplebuf

(** One execution lane of a morsel-parallel pipeline body: a private copy
    of the state block whose sink slots point at lane-local objects, plus
    a scope capturing everything the lane allocates. Built at the body's
    first quantum, merged back and freed at its barrier. *)
type lane = {
  l_emu : Emu.t;  (** the scheduler's per-lane execution context *)
  l_scope : Memory.scope;
  l_state : int;
}

type t = {
  db : Engine.db;
  cq : Codegen.compiled;
  mutable cm : Backend.compiled_module;
  state : int;  (** VM address of the per-execution state block *)
  scope : Memory.scope;
      (** every linear-memory block this execution allocates (state block
          plus the runtime's buffers/arenas), recycled by {!dispose} *)
  sched : Morsel_sched.t option;
      (** lane pool for morsel-parallel pipeline bodies; [None] or one
          lane means every body runs serially *)
  mutable rest : Codegen.step list;  (** steps not yet finished *)
  mutable cursor : int;  (** next row within the head step, if morsel-driven *)
  mutable lanes : lane array;  (** live while a parallel body is mid-flight *)
  mutable cycles : int;
      (** simulated cycles consumed so far, summed over all lanes (total
          work — what the query is billed) *)
  mutable wall_cycles : int;
      (** simulated wall-clock cycles: parallel quanta contribute the max
          over lanes, so this is what virtual time advances by *)
  mutable instructions : int;
  mutable quanta : int;  (** total step calls issued *)
  mutable swapped_at : int option;  (** quantum index of the first hot-swap *)
  mutable rows_done : int;  (** scan rows consumed by [`Table] quanta *)
  mutable ewma_cpr : float option;
      (** EWMA of observed wall cycles per scan row on the {e current}
          tier; reset at every {!swap} so the estimate tracks the new code *)
  mutable disposed : bool;
}

(* Smoothing for the cycles-per-row observation: heavy enough that one
   skewed morsel (hash-table growth, a seek into a dense key range) does
   not whipsaw the tier controller, light enough to follow a phase change
   (build -> probe) within a few quanta. *)
let ewma_alpha = 0.3

let apply_fixups db state (cq : Codegen.compiled) cm =
  let mem = Engine.memory db in
  List.iter
    (fun (slot, fn) -> Memory.store64 mem (state + slot) (Backend.find_fn cm fn))
    cq.Codegen.fn_ptr_fixups

let start ?sched db (cq : Codegen.compiled) cm =
  let mem = Engine.memory db in
  let scope = Memory.new_scope () in
  (* zeroed, as every {!Memory.alloc} *)
  let state =
    Memory.with_scope scope (fun () ->
        Memory.alloc mem ~align:16 cq.Codegen.state_size)
  in
  apply_fixups db state cq cm;
  {
    db;
    cq;
    cm;
    state;
    scope;
    sched;
    rest = cq.Codegen.steps;
    cursor = 0;
    lanes = [||];
    cycles = 0;
    wall_cycles = 0;
    instructions = 0;
    quanta = 0;
    swapped_at = None;
    rows_done = 0;
    ewma_cpr = None;
    disposed = false;
  }

let finished t = t.rest = []

let free_lanes t =
  let mem = Engine.memory t.db in
  Array.iter (fun l -> Memory.free_scope mem l.l_scope) t.lanes;
  t.lanes <- [||]

(** Recycle every linear-memory block this execution allocated (the state
    block and everything the runtime carved during its quanta). Call once
    the output rows have been read — the blocks are zeroed and reused, so
    any later access through the execution is a bug. Idempotent. *)
let dispose t =
  if not t.disposed then begin
    t.disposed <- true;
    free_lanes t;
    Memory.free_scope (Engine.memory t.db) t.scope
  end

(** Switch the remaining quanta to [cm] (same codegen result, different
    back-end). Only legal between quanta — the emulator is not running. *)
let swap t cm =
  if not (finished t) then begin
    t.cm <- cm;
    apply_fixups t.db t.state t.cq cm;
    if t.swapped_at = None then t.swapped_at <- Some t.quanta;
    (* the observation tracked the old tier's code; start afresh *)
    t.ewma_cpr <- None
  end

let observe_rows t ~rows ~wall_dc =
  if rows > 0 then begin
    t.rows_done <- t.rows_done + rows;
    let sample = float_of_int wall_dc /. float_of_int rows in
    t.ewma_cpr <-
      (match t.ewma_cpr with
      | None -> Some sample
      | Some e -> Some ((ewma_alpha *. sample) +. ((1.0 -. ewma_alpha) *. e)))
  end

(* ---------------- morsel-parallel pipeline bodies ----------------

   Two-phase execution of a parallel body (the partition-then-merge shape
   DuckDB/Velox use, and Umbra's exact-size build):

   1. parallel phase — every lane gets a private state-block copy whose
      sink slots are redirected to lane-local hash tables / row buffers;
      lanes run the *same* compiled body function over disjoint morsels,
      writing only lane-local objects (reads of earlier pipelines' tables
      are shared and read-only).
   2. barrier — the main context merges lane sinks back: join tables are
      republished as one exact-size global table from the now-known
      cardinality (no growth during the merge inserts), aggregate tables
      are combined by a *generated* merge function (partial aggregates
      need combine semantics, not blits), row buffers are concatenated in
      lane order. Lane scopes are then freed. *)

let init_lanes t sched (s : Codegen.step) =
  let mem = Engine.memory t.db in
  let n = Morsel_sched.lanes sched in
  t.lanes <-
    Array.init n (fun i ->
        let l_scope = Memory.new_scope () in
        let l_state =
          Memory.with_scope l_scope (fun () ->
              let st = Memory.alloc mem ~align:16 t.cq.Codegen.state_size in
              Memory.blit mem ~src:t.state ~dst:st
                ~len:t.cq.Codegen.state_size;
              List.iter
                (fun (sink : Codegen.sink) ->
                  match sink with
                  | Codegen.Sink_ht { ht_slot; ht_payload; ht_merge = _ } ->
                      let glob =
                        Int64.to_int (Memory.load64 mem (t.state + ht_slot))
                      in
                      let hint = max 16 (Htable.capacity mem glob / n) in
                      let ht =
                        Htable.create t.db.Engine.emu ~payload_size:ht_payload
                          ~capacity_hint:hint
                      in
                      Memory.store64 mem (st + ht_slot) (Int64.of_int ht)
                  | Codegen.Sink_buf { buf_slot; buf_row } ->
                      let buf =
                        Tuplebuf.create mem ~row_size:buf_row
                          ~capacity_hint:64
                      in
                      Emu.charge t.db.Engine.emu 150;
                      Memory.store64 mem (st + buf_slot) (Int64.of_int buf))
                s.Codegen.sinks;
              st)
        in
        { l_emu = Morsel_sched.lane_emu sched i; l_scope; l_state })

(** Barrier: fold every lane's sinks back into the global objects, on the
    main context (serial single-threaded cleanup work). *)
let merge_lanes t (s : Codegen.step) =
  let mem = Engine.memory t.db in
  let emu = t.db.Engine.emu in
  List.iter
    (fun (sink : Codegen.sink) ->
      match sink with
      | Codegen.Sink_ht { ht_slot; ht_payload; ht_merge = None } ->
          (* join build: exact-size global table from the known
             cardinality, then one insert+blit per materialized entry *)
          let total =
            Array.fold_left
              (fun acc l ->
                acc
                + Htable.count mem
                    (Int64.to_int (Memory.load64 mem (l.l_state + ht_slot))))
              0 t.lanes
          in
          let dst =
            Htable.create emu ~payload_size:ht_payload
              ~capacity_hint:(Htable.exact_capacity total)
          in
          Array.iter
            (fun l ->
              let src =
                Int64.to_int (Memory.load64 mem (l.l_state + ht_slot))
              in
              Htable.merge_into emu ~dst ~src)
            t.lanes;
          Memory.store64 mem (t.state + ht_slot) (Int64.of_int dst)
      | Codegen.Sink_ht { ht_slot; ht_merge = Some fn; _ } ->
          (* aggregate table: generated combine function, lane by lane *)
          let addr = Int64.to_int (Backend.find_fn t.cm fn) in
          Array.iter
            (fun l ->
              let src = Memory.load64 mem (l.l_state + ht_slot) in
              ignore
                (Emu.call emu ~addr
                   ~args:[| Int64.of_int t.state; src; 0L |]))
            t.lanes
      | Codegen.Sink_buf { buf_slot; _ } ->
          (* row buffer: concatenate in lane order (morsels are assigned
             round-robin, so lane order approximates scan order; ordering
             operators sort downstream anyway) *)
          let dst = Int64.to_int (Memory.load64 mem (t.state + buf_slot)) in
          Array.iter
            (fun l ->
              let src =
                Int64.to_int (Memory.load64 mem (l.l_state + buf_slot))
              in
              Tuplebuf.concat_into emu ~dst ~src)
            t.lanes)
    s.Codegen.sinks;
  free_lanes t

(** One quantum of a morsel-parallel body: claim [lanes * morsel] rows,
    fan them out over the lanes, and on depletion run the merge barrier.
    Returns (wall dc, total dc, instruction delta, rows consumed,
    depleted). *)
let parallel_quantum t sched (s : Codegen.step) tbl ~morsel =
  let addr = Int64.to_int (Backend.find_fn t.cm s.Codegen.fn_name) in
  let n = Morsel_sched.lanes sched in
  let msz = max 1 morsel in
  let rows = Table.rows (Engine.table t.db tbl) in
  let lo = min t.cursor rows in
  let hi = min (lo + (msz * n)) rows in
  t.cursor <- hi;
  let c0 = Emu.cycles t.db.Engine.emu in
  let i0 = Emu.instructions_executed t.db.Engine.emu in
  if t.lanes = [||] && hi > lo then init_lanes t sched s;
  let per_lane =
    if hi <= lo then [||]
    else begin
      let run_lane emu l lo hi =
        Memory.with_scope l.l_scope (fun () ->
            ignore
              (Emu.call emu ~addr
                 ~args:
                   [| Int64.of_int l.l_state; Int64.of_int lo; Int64.of_int hi |]))
      in
      if Morsel_sched.parallel sched then begin
        (* dynamic claim: fast lanes steal the remaining morsels *)
        let cl = Morsel_sched.claim ~lo ~hi ~size:msz in
        Morsel_sched.map sched (fun i ->
            let emu = Morsel_sched.lane_emu sched i in
            let l = t.lanes.(i) in
            let c0 = Emu.cycles emu and i0 = Emu.instructions_executed emu in
            let rec drain () =
              match Morsel_sched.take cl with
              | None -> ()
              | Some (mlo, mhi) ->
                  run_lane emu l mlo mhi;
                  drain ()
            in
            drain ();
            (Emu.cycles emu - c0, Emu.instructions_executed emu - i0))
      end
      else
        (* deterministic static split: lane i gets the i-th contiguous
           morsel of this quantum's claim *)
        Morsel_sched.map sched (fun i ->
            let emu = Morsel_sched.lane_emu sched i in
            let l = t.lanes.(i) in
            let llo = min (lo + (i * msz)) hi in
            let lhi = min (llo + msz) hi in
            let c0 = Emu.cycles emu and i0 = Emu.instructions_executed emu in
            if lhi > llo then run_lane emu l llo lhi;
            (Emu.cycles emu - c0, Emu.instructions_executed emu - i0))
    end
  in
  let depleted = hi >= rows in
  if depleted && t.lanes <> [||] then
    Memory.with_scope t.scope (fun () -> merge_lanes t s);
  let main_dc = Emu.cycles t.db.Engine.emu - c0 in
  let main_di = Emu.instructions_executed t.db.Engine.emu - i0 in
  let wall =
    Array.fold_left (fun m (dc, _) -> max m dc) 0 per_lane + main_dc
  in
  let total =
    Array.fold_left (fun a (dc, _) -> a + dc) 0 per_lane + main_dc
  in
  let di =
    Array.fold_left (fun a (_, n) -> a + n) 0 per_lane + main_di
  in
  (wall, total, di, hi - lo, depleted)

(** Run one quantum: the whole head step if [`Whole], else the next rows
    of it — [morsel] rows serially, or [lanes * morsel] rows fanned out
    over the scheduler's lanes when the body is parallelizable. Returns
    the simulated wall-clock cycles it cost (what virtual time advances
    by); total work is accumulated in {!cycles}. *)
let step t ~morsel =
  match t.rest with
  | [] -> `Done
  | s :: rest ->
      let parallel_sched =
        match (t.sched, s.Codegen.range) with
        | Some sched, `Table tbl
          when Morsel_sched.lanes sched > 1
               && s.Codegen.par_safe && s.Codegen.sinks <> [] ->
            Some (sched, tbl)
        | _ -> None
      in
      let wall_dc, total_dc, di, rows, depleted =
        match parallel_sched with
        | Some (sched, tbl) -> parallel_quantum t sched s tbl ~morsel
        | None ->
            let addr = Backend.find_fn t.cm s.Codegen.fn_name in
            let lo, hi, depleted =
              match s.Codegen.range with
              | `Whole -> (0L, 0L, true)
              | `Table tbl ->
                  let rows = Table.rows (Engine.table t.db tbl) in
                  let lo = min t.cursor rows in
                  let hi = min (lo + max 1 morsel) rows in
                  t.cursor <- hi;
                  (Int64.of_int lo, Int64.of_int hi, hi >= rows)
            in
            let c0 = Emu.cycles t.db.Engine.emu in
            let i0 = Emu.instructions_executed t.db.Engine.emu in
            Memory.with_scope t.scope (fun () ->
                ignore
                  (Emu.call t.db.Engine.emu ~addr:(Int64.to_int addr)
                     ~args:[| Int64.of_int t.state; lo; hi |]));
            let dc = Emu.cycles t.db.Engine.emu - c0 in
            let di = Emu.instructions_executed t.db.Engine.emu - i0 in
            let rows =
              match s.Codegen.range with
              | `Table _ -> Int64.to_int hi - Int64.to_int lo
              | `Whole -> 0
            in
            (dc, dc, di, rows, depleted)
      in
      t.cycles <- t.cycles + total_dc;
      t.wall_cycles <- t.wall_cycles + wall_dc;
      t.instructions <- t.instructions + di;
      t.quanta <- t.quanta + 1;
      (match s.Codegen.range with
      | `Table _ -> observe_rows t ~rows ~wall_dc
      | `Whole -> ());
      if depleted then begin
        t.rest <- rest;
        t.cursor <- 0
      end;
      `Ran wall_dc

(** Drive the execution to completion; [on_quantum] observes each quantum's
    cycle cost (the serving scheduler advances virtual time there). *)
let run_to_end ?(on_quantum = fun _ -> ()) t ~morsel =
  let rec loop () =
    match step t ~morsel with
    | `Done -> ()
    | `Ran dc ->
        on_quantum dc;
        loop ()
  in
  loop ()

(** Materialized output rows; meaningful once {!finished}. *)
let rows t = Engine.read_output t.db t.cq ~state:t.state

let result t : Engine.result =
  let rows = rows t in
  {
    Engine.rows;
    exec_cycles = t.cycles;
    exec_instructions = t.instructions;
    output_count = List.length rows;
  }

let cycles t = t.cycles
let wall_cycles t = t.wall_cycles
let quanta t = t.quanta
let swapped_at t = t.swapped_at
let rows_done t = t.rows_done

(** Scan rows the remaining [`Table] steps still have to produce — the
    head step's unconsumed tail plus every untouched scan. [`Whole] steps
    (prepare, sort, aggregate rescan) contribute nothing; their cost is
    folded into the cycles-per-row observation instead. *)
let rows_remaining t =
  let step_rows cursor (s : Codegen.step) =
    match s.Codegen.range with
    | `Whole -> 0
    | `Table tbl -> max 0 (Table.rows (Engine.table t.db tbl) - cursor)
  in
  match t.rest with
  | [] -> 0
  | head :: rest ->
      step_rows t.cursor head
      + List.fold_left (fun acc s -> acc + step_rows 0 s) 0 rest

(** Smoothed cycles per scan row observed on the current tier; [None]
    until a row-producing quantum has run since the last {!swap}. *)
let observed_cpr t = t.ewma_cpr

(** The IR module behind this execution — what a stronger tier would
    compile, hence what the upgrade estimator prices. *)
let ir_module t = t.cq.Codegen.modul
