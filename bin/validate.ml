(* Differential validation tool: every back-end must reproduce the
   interpreter's (order-sensitive) result checksum on every query of a
   workload — and so must the serving layer's cached, tiered and
   tiered+reopt execution paths (lib/server), which reuse compiled modules
   and hot-swap back-ends mid-query.  Usage: validate (tpch|tpcds).
   Prints one WRONG or EXN line per failing (back-end or serving mode,
   query) pair and exits 1 when there is any, 2 on a usage error. *)
open Qcomp_engine
open Qcomp_server
module Spec = Qcomp_workloads.Spec
let () =
  let target = Qcomp_vm.Target.x64 in
  let wl =
    match Sys.argv with
    | [| _; "tpch" |] -> Experiments.Tpch
    | [| _; "tpcds" |] -> Experiments.Tpcds
    | _ ->
        prerr_endline "usage: validate (tpch|tpcds)";
        exit 2
  in
  let sf = 2 in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  let queries = Experiments.queries_of wl in
  let refr = Experiments.measure target wl ~sf Engine.interpreter in
  let refsums = List.map (fun q -> (q.Experiments.qr_name, q.Experiments.qr_checksum)) refr.Experiments.wr_queries in
  List.iter
    (fun b ->
      let bname = Qcomp_backend.Backend.name b in
      List.iter
        (fun (q : Spec.query) ->
          let db = Experiments.make_db target wl ~sf in
          try
            let r = Experiments.run_workload ~timing_enabled:false db b [ q ] in
            let qr = List.hd r.Experiments.wr_queries in
            let expect = List.assoc q.Spec.q_name refsums in
            if not (Int64.equal qr.Experiments.qr_checksum expect) then
              fail "%s %s WRONG\n%!" bname q.Spec.q_name
          with e -> fail "%s %s EXN %s\n%!" bname q.Spec.q_name (Printexc.to_string e))
        queries;
      Printf.printf "%s done\n%!" bname)
    (List.filter (fun b -> b != Engine.interpreter) (Engine.all_backends target));
  (* serving paths: replay every query (twice, so the second pass exercises
     cache hits) through the deterministic scheduler and compare each served
     checksum against the interpreter reference *)
  let stream =
    List.concat_map
      (fun (q : Spec.query) -> [ (q.Spec.q_name, q.Spec.q_plan); (q.Spec.q_name, q.Spec.q_plan) ])
      queries
  in
  List.iter
    (fun (mode, reopt) ->
      let label = Server.mode_name mode ^ if reopt then "+reopt" else "" in
      let db = Experiments.make_db target wl ~sf in
      match Server.run db { Server.default_config with Server.mode; reopt } stream with
      | report ->
          List.iter
            (fun (qm : Server.query_metrics) ->
              let expect = List.assoc qm.Report.qm_name refsums in
              if not (Int64.equal qm.Report.qm_checksum expect) then
                fail "%s %s WRONG\n%!" label qm.Report.qm_name)
            report.Report.r_queries;
          Printf.printf "%s done (cache hits %d)\n%!" label report.Report.r_cache.Lru.hits
      | exception e -> fail "%s EXN %s\n%!" label (Printexc.to_string e))
    [ (Server.Cached, false); (Server.Tiered, false); (Server.Tiered, true) ];
  if !failures > 0 then begin
    Printf.printf "%d failures\n%!" !failures;
    exit 1
  end
