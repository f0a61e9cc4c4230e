(* Query-serving CLI: replay a deterministic repeated-query stream from the
   TPC-H/TPC-DS-like workloads through the lib/server scheduler.

   Usage:
     serve [tpch|tpcds|zipf] [options]
       zipf             serve the Zipf-literal workload (TPC-H shapes with
                        varying predicate literals) instead of the fixed
                        query mix — the stream that shows shape-keyed
                        caching: one compile per shape, then binds
       --mode tiered|cached|static:<backend>   serving policy (default tiered)
       --no-paramize    disable plan normalization (cache per whole plan,
                        as before parameterized-plan specialization)
       --reopt          tiered only: observation-driven tier controller —
                        at every morsel boundary the ladder is re-priced
                        from observed cycles-per-row, so a query can
                        upgrade past the prior's pick (more than once)
       --queries N      stream length (default 50)
       --workers W      execution workers (default 4)
       --domains N      serve on N real worker domains (workers = N)
                        instead of the discrete-event scheduler (timings
                        become wall-clock)
       --morsel M       rows per execution quantum (default 512)
       --intra N        intra-query lanes: parallelizable pipeline bodies
                        fan each quantum's morsels out over N lanes
                        (simulated deterministically on the event driver,
                        real nested domains under --domains; default 1)
       --cache N        module-cache capacity in entries (default 64)
       --sf K           scale factor (default 2)
       --gap-us G       mean inter-arrival gap in microseconds (default 500)
       --arrival poisson|burst   open-loop timed arrivals from the traffic
                        generator instead of the legacy gap process; the
                        queue is fed at the trace's stamps regardless of
                        server progress
       --qps Q          open-loop target rate (default 2000)
       --burst B        burst mode: arrivals per burst (default 32)
       --idle-us I      burst mode: idle gap between bursts (default 5000)
       --admission-cap N  bound the admission queue at N; arrivals beyond
                        it are shed (rejected, counted in the report)
       --tenants T      tag arrivals with T tenants, dequeued fair
                        round-robin (default 1)
       --seed S         stream/arrival seed (default 42)
       --per-query      print one line per completed query
       --validate       also check every checksum against Engine.run_plan
       --save-cache F   snapshot the code cache to F after the run
       --load-cache F   start from the snapshot in F instead of a cold
                        cache: every query whose (fingerprint, backend)
                        is in the snapshot re-links in microseconds
                        instead of paying back-end compile seconds

   Two invocations with the same arguments print byte-identical reports
   (shed sets included) when serving on the discrete-event scheduler:
   every duration in the virtual timeline is deterministic (modelled
   compile seconds, emulated execution cycles). *)

open Qcomp_engine
open Qcomp_server

let usage () =
  prerr_endline
    "usage: serve [tpch|tpcds|zipf] [--mode tiered|cached|static:<backend>]\n\
    \             [--reopt] [--no-paramize] [--queries N] [--workers W]\n\
    \             [--domains N] [--morsel M] [--intra N] [--cache N]\n\
    \             [--sf K] [--gap-us G]\n\
    \             [--arrival poisson|burst] [--qps Q] [--burst B]\n\
    \             [--idle-us I] [--admission-cap N] [--tenants T]\n\
    \             [--seed S] [--per-query] [--validate]\n\
    \             [--save-cache FILE] [--load-cache FILE]";
  exit 1

let int_arg name v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ ->
      Printf.eprintf "%s: expected a non-negative integer, got %s\n" name v;
      exit 1

let pos_arg name v =
  let n = int_arg name v in
  if n = 0 then begin
    Printf.eprintf "%s: must be positive\n" name;
    exit 1
  end;
  n

(* every server runs on x86-64 *)
let target = Qcomp_vm.Target.x64

let backend_of_name b =
  match Engine.backend_of_name target b with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown back-end %s\n" b;
      exit 1

let () =
  let workload = ref Experiments.Tpch in
  let zipf = ref false in
  let cfg = ref Server.default_config in
  let n = ref 50 in
  let sf = ref 2 in
  let per_query = ref false in
  let validate = ref false in
  let parallel = ref false in
  let save_cache = ref None in
  let load_cache = ref None in
  let arrival_kind = ref None in
  let qps = ref 2000.0 in
  let burst = ref 32 in
  let idle_us = ref 5000.0 in
  let rec parse = function
    | [] -> ()
    | "tpch" :: rest ->
        workload := Experiments.Tpch;
        parse rest
    | "tpcds" :: rest ->
        workload := Experiments.Tpcds;
        parse rest
    | "zipf" :: rest ->
        zipf := true;
        workload := Experiments.Tpch;
        parse rest
    | "--no-paramize" :: rest ->
        cfg := { !cfg with Server.paramize = false };
        parse rest
    | "--mode" :: m :: rest ->
        (cfg :=
           {
             !cfg with
             Server.mode =
               (match m with
               | "tiered" -> Server.Tiered
               | "cached" -> Server.Cached
               | _ when String.length m > 7 && String.sub m 0 7 = "static:" ->
                   Server.Static
                     (backend_of_name (String.sub m 7 (String.length m - 7)))
               | _ -> usage ());
           });
        parse rest
    | "--queries" :: v :: rest ->
        n := int_arg "--queries" v;
        parse rest
    | "--workers" :: v :: rest ->
        cfg := { !cfg with Server.workers = pos_arg "--workers" v };
        parse rest
    | "--domains" :: v :: rest ->
        parallel := true;
        cfg := { !cfg with Server.workers = pos_arg "--domains" v };
        parse rest
    | "--reopt" :: rest ->
        cfg := { !cfg with Server.reopt = true };
        parse rest
    | "--morsel" :: v :: rest ->
        cfg := { !cfg with Server.morsel = pos_arg "--morsel" v };
        parse rest
    | "--intra" :: v :: rest ->
        cfg := { !cfg with Server.intra = pos_arg "--intra" v };
        parse rest
    | "--cache" :: v :: rest ->
        cfg := { !cfg with Server.cache_capacity = pos_arg "--cache" v };
        parse rest
    | "--sf" :: v :: rest ->
        sf := pos_arg "--sf" v;
        parse rest
    | "--gap-us" :: v :: rest ->
        cfg := { !cfg with Server.mean_gap_s = float_of_string v *. 1e-6 };
        parse rest
    | "--arrival" :: v :: rest ->
        (match v with
        | "poisson" | "burst" -> arrival_kind := Some v
        | _ ->
            Printf.eprintf "--arrival: expected poisson or burst, got %s\n" v;
            usage ());
        parse rest
    | "--qps" :: v :: rest ->
        qps := float_of_string v;
        parse rest
    | "--burst" :: v :: rest ->
        burst := pos_arg "--burst" v;
        parse rest
    | "--idle-us" :: v :: rest ->
        idle_us := float_of_string v;
        parse rest
    | "--admission-cap" :: v :: rest ->
        cfg :=
          { !cfg with Server.admission_cap = Some (pos_arg "--admission-cap" v) };
        parse rest
    | "--tenants" :: v :: rest ->
        cfg := { !cfg with Server.tenants = pos_arg "--tenants" v };
        parse rest
    | "--seed" :: v :: rest ->
        cfg := { !cfg with Server.seed = Int64.of_string v };
        parse rest
    | "--per-query" :: rest ->
        per_query := true;
        parse rest
    | "--validate" :: rest ->
        validate := true;
        parse rest
    | "--save-cache" :: f :: rest ->
        save_cache := Some f;
        parse rest
    | "--load-cache" :: f :: rest ->
        load_cache := Some f;
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %s\n" a;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let db = Experiments.make_db target !workload ~sf:!sf in
  let pairs qs =
    List.map
      (fun (q : Qcomp_workloads.Spec.query) ->
        (q.Qcomp_workloads.Spec.q_name, q.Qcomp_workloads.Spec.q_plan))
      qs
  in
  let queries =
    if !zipf then pairs Qcomp_workloads.Paramgen.queries
    else pairs (Experiments.queries_of !workload)
  in
  (* the open-loop trace (when --arrival is given): timed, tenant-tagged
     requests over the workload's query pool *)
  let requests =
    match !arrival_kind with
    | None -> None
    | Some kind ->
        let arrival =
          match kind with
          | "poisson" -> Qcomp_workloads.Trafficgen.Poisson { qps = !qps }
          | _ ->
              Qcomp_workloads.Trafficgen.Burst
                { qps = !qps; burst = !burst; idle_s = !idle_us *. 1e-6 }
        in
        let pool =
          if !zipf then
            pairs (Qcomp_workloads.Paramgen.stream ~seed:(!cfg).Server.seed ~n:!n)
          else queries
        in
        Some
          (List.map
             (fun (name, plan, at, tenant) ->
               {
                 Server.rq_name = name;
                 rq_plan = plan;
                 rq_arrival = at;
                 rq_tenant = tenant;
               })
             (Qcomp_workloads.Trafficgen.stream ~arrival
                ~seed:(!cfg).Server.seed ~n:!n ~tenants:(!cfg).Server.tenants
                pool))
  in
  let stream =
    if !zipf then
      pairs (Qcomp_workloads.Paramgen.stream ~seed:(!cfg).Server.seed ~n:!n)
    else Server.make_stream ~seed:(!cfg).Server.seed ~n:!n queries
  in
  (* load must happen right after the deterministic database build, before
     any query runs, so the snapshot's baked string constants can claim
     their original addresses *)
  let cache =
    match !load_cache with
    | Some f ->
        let c = Code_cache.load ~capacity:(!cfg).Server.cache_capacity ~db f in
        let s = Code_cache.stats c in
        Printf.printf "snapshot: loaded %d modules from %s\n" s.Lru.entries f;
        c
    | None -> Code_cache.create ~capacity:(!cfg).Server.cache_capacity
  in
  let serve ?parallel sdb scache =
    match requests with
    | Some reqs -> Server.run_requests ~cache:scache ?parallel sdb !cfg reqs
    | None -> Server.run ~cache:scache ?parallel sdb !cfg stream
  in
  let report = serve ~parallel:!parallel db cache in
  Format.printf "%a" (Server.pp_report ~per_query:!per_query) report;
  (match !save_cache with
  | Some f ->
      Code_cache.save cache ~db f;
      Printf.printf "snapshot: saved code cache to %s\n" f
  | None -> ());
  if (!cfg).Server.reopt then begin
    (* upgrade trace: which queries the observation-driven controller moved
       off their starting tier, and how far *)
    let upgraded =
      List.filter
        (fun (q : Server.query_metrics) -> List.length q.Report.qm_tiers > 1)
        report.Report.r_queries
    in
    let multi =
      List.filter
        (fun (q : Server.query_metrics) -> List.length q.Report.qm_tiers > 2)
        upgraded
    in
    List.iter
      (fun (q : Server.query_metrics) ->
        Printf.printf "  reopt %-8s %s%s\n" q.Report.qm_name
          (String.concat " -> " q.Report.qm_tiers)
          (match q.Report.qm_switch_s with
          | Some s -> Printf.sprintf "  (first swap @%.6fs)" s
          | None -> ""))
      upgraded;
    Printf.printf "  reopt: %d/%d queries upgraded mid-flight (%d more than once)\n"
      (List.length upgraded)
      (List.length report.Report.r_queries)
      (List.length multi)
  end;
  if !parallel && !validate then begin
    (* the parallel run must be indistinguishable from the sequential one
       in everything that is not wall-clock: the multiset of
       (name, rows, checksum), the final live code bytes, and a fully
       unpinned, underflow-free cache *)
    let sdb = Experiments.make_db target !workload ~sf:!sf in
    let sreport =
      serve sdb (Code_cache.create ~capacity:(!cfg).Server.cache_capacity)
    in
    (* under an admission cap, which arrivals get shed is wall-clock on
       the pool (queue occupancy depends on worker speed) but virtual-time
       on the event driver, so the completed sets can legitimately differ;
       the per-name checksum validation below still covers every completed
       query *)
    let shed_either =
      report.Report.r_sheds <> [] || sreport.Report.r_sheds <> []
    in
    if shed_either then
      Printf.printf
        "validate: sheds occurred (parallel %d, sequential %d) — skipping \
         multiset comparison, per-result checksums still checked\n"
        (List.length report.Report.r_sheds)
        (List.length sreport.Report.r_sheds)
    else begin
      let key (q : Server.query_metrics) =
        (q.Report.qm_name, q.Report.qm_rows, q.Report.qm_checksum)
      in
      let multiset r = List.sort compare (List.map key r.Report.r_queries) in
      if multiset report <> multiset sreport then begin
        Printf.printf
          "PARALLEL MISMATCH: per-query (name, rows, checksum) multiset \
           differs from the sequential run\n";
        exit 1
      end;
      (* under --reopt the set of compiled modules depends on wall-clock
         quantum timing (which upgrades fire, and when), so live code bytes
         legitimately differ from the virtual-clock run; likewise Tiered
         serving of an open-loop trace — queueing delay shifts whether a
         query is still running when its background compile lands, and a
         swap that does not happen is a strong-module bind that is never
         allocated. Rows/checksums are still bit-exact and checked above *)
      let bytes_nondet =
        (!cfg).Server.reopt
        || (requests <> None && (!cfg).Server.mode = Server.Tiered)
      in
      if
        (not bytes_nondet)
        && report.Report.r_live_code_bytes <> sreport.Report.r_live_code_bytes
      then begin
        Printf.printf "PARALLEL MISMATCH: live code bytes %d (sequential %d)\n"
          report.Report.r_live_code_bytes sreport.Report.r_live_code_bytes;
        exit 1
      end
    end;
    let pins = Code_cache.live_pins cache in
    let under = (Code_cache.mem_stats cache).Code_cache.ms_pin_underflows in
    if pins <> 0 || under <> 0 then begin
      Printf.printf "PARALLEL MISMATCH: %d pins live, %d pin underflows\n"
        pins under;
      exit 1
    end;
    if not shed_either then
      Printf.printf
        "validate: parallel run (%d domains) matches sequential: %d results, \
         live code %d bytes, 0 pins\n"
        (!cfg).Server.workers
        (List.length report.Report.r_queries)
        report.Report.r_live_code_bytes
  end;
  if !validate then begin
    (* every distinct plan's serving checksum must match the classic
       run_plan path on a fresh database *)
    let vdb = Experiments.make_db target !workload ~sf:!sf in
    let timing = Qcomp_support.Timing.create ~enabled:false () in
    let expected = Hashtbl.create 32 in
    let bad = ref 0 in
    let plan_of name =
      match List.assoc_opt name queries with
      | Some p -> Some p
      | None -> (
          match requests with
          | Some reqs ->
              List.find_map
                (fun (r : Server.request) ->
                  if String.equal r.Server.rq_name name then
                    Some r.Server.rq_plan
                  else None)
                reqs
          | None -> None)
    in
    List.iter
      (fun (q : Server.query_metrics) ->
        let sum =
          match Hashtbl.find_opt expected q.Report.qm_name with
          | Some s -> s
          | None ->
              let plan =
                match plan_of q.Report.qm_name with
                | Some p -> p
                | None -> failwith ("no plan for " ^ q.Report.qm_name)
              in
              let s =
                Engine.with_compiled vdb ~backend:Engine.interpreter ~timing
                  ~name:q.Report.qm_name plan (fun cq cm _ ->
                    let rows = (Engine.execute vdb cq cm).Engine.rows in
                    (* intra-query lanes checksum the sorted multiset
                       (merge order is lane order); mirror that here *)
                    if (!cfg).Server.intra > 1 then
                      Engine.checksum (List.sort compare rows)
                    else Engine.checksum rows)
              in
              Hashtbl.replace expected q.Report.qm_name s;
              s
        in
        if not (Int64.equal sum q.Report.qm_checksum) then begin
          incr bad;
          Printf.printf "MISMATCH %s: served %Lx expected %Lx\n"
            q.Report.qm_name q.Report.qm_checksum sum
        end)
      report.Report.r_queries;
    if !bad = 0 then
      Printf.printf "validate: all %d served results match run_plan\n"
        (List.length report.Report.r_queries)
    else exit 1
  end
