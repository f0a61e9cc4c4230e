(* The tagged-probe / direct-address hash table runtime: layout selection
   and fallback, duplicate-chain order across growth, tag false-positive
   bounds, probe-cost calibration, zeroing charges, the stale-address
   guard, the grow-leak regression, what a registry probe allocates and
   the per-domain probe counters. *)

open Qcomp_vm
open Qcomp_runtime
module Hashes = Qcomp_support.Hashes

let check = Alcotest.check
let fresh () = Emu.create ~mem_size:(1 lsl 24) Target.x64

let unhash h =
  if not Hashes.invertible then Alcotest.fail "unhash64 unavailable for these seeds";
  Hashes.unhash64 h

(* Every table operation charges the machine it runs on; these wrappers
   return the charge beside the result. *)
let charged vm f =
  let c0 = Emu.cycles vm in
  let r = f () in
  (r, Emu.cycles vm - c0)

let create vm ~payload_size ~capacity_hint =
  charged vm (fun () -> Htable.create vm ~payload_size ~capacity_hint)

let insert vm ht h = charged vm (fun () -> Htable.insert vm ht h)
let lookup vm ht h = charged vm (fun () -> Htable.lookup vm ht h)
let next vm ht e h = charged vm (fun () -> Htable.next vm ht e h)

(* a spread 64-bit value whose unhash is pseudorandom (combined hashes
   never unhash to anything dense) *)
let scrambled i = Hashes.combine (Hashes.hash64 (Int64.of_int i)) 0x5BD1E995L

let mode_cases =
  [
    Alcotest.test_case "unhash64 inverts hash64" `Quick (fun () ->
        List.iter
          (fun x ->
            check Alcotest.int64 "roundtrip" x (unhash (Hashes.hash64 x)))
          [ 0L; 1L; -1L; 42L; Int64.min_int; Int64.max_int; 0xDEADBEEFL ];
        for i = 0 to 999 do
          let x = Hashes.hash64 (Int64.of_int (i * 7919)) in
          check Alcotest.int64 "roundtrip rand" x (unhash (Hashes.hash64 x))
        done);
    Alcotest.test_case "dense integer keys select direct addressing" `Quick
      (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let ht, _ = create vm ~payload_size:8 ~capacity_hint:16 in
        for k = 0 to 999 do
          let p, _ = insert vm ht (Hashes.hash64 (Int64.of_int k)) in
          Memory.store64 m p (Int64.of_int (k * 3))
        done;
        check Alcotest.bool "direct" true (Htable.mode m ht = `Direct);
        check Alcotest.int "count" 1000 (Htable.count m ht);
        for k = 0 to 999 do
          let e, _ = lookup vm ht (Hashes.hash64 (Int64.of_int k)) in
          check Alcotest.bool "found" true (e <> 0);
          check Alcotest.int64 "payload" (Int64.of_int (k * 3))
            (Memory.load64 m (e + 8))
        done;
        (* absent keys: in-range gaps and out-of-range both miss *)
        let e, c = lookup vm ht (Hashes.hash64 123456789L) in
        check Alcotest.int "range miss" 0 e;
        check Alcotest.bool "range miss is cheap" true (c <= 3));
    Alcotest.test_case "sparse keys fall back to tagged mid-build" `Quick
      (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let ht, _ = create vm ~payload_size:8 ~capacity_hint:16 in
        let keys =
          List.init 100 (fun k -> Int64.of_int k) @ [ 10_000_000L ]
        in
        List.iteri
          (fun i k ->
            let p, _ = insert vm ht (Hashes.hash64 k) in
            Memory.store64 m p (Int64.of_int i))
          keys;
        check Alcotest.bool "tagged after outlier" true
          (Htable.mode m ht = `Tagged);
        List.iteri
          (fun i k ->
            let e, _ = lookup vm ht (Hashes.hash64 k) in
            check Alcotest.bool "found" true (e <> 0);
            check Alcotest.int64 "payload survives migration"
              (Int64.of_int i)
              (Memory.load64 m (e + 8)))
          keys);
    Alcotest.test_case "direct/tagged lookup chains match the insertion model"
      `Quick (fun () ->
        (* the model: every key maps to its payloads in insertion order;
           a lookup + next walk must return exactly that chain *)
        let keys =
          List.init 200 (fun k -> Int64.of_int (k mod 120))
          (* dups: 80 keys twice *)
        in
        let model inserted k =
          List.concat
            (List.mapi
               (fun i k' -> if Int64.equal k k' then [ Int64.of_int i ] else [])
               inserted)
        in
        let check_against_model name ~expect_mode inserted =
          let vm = fresh () in
          let m = Emu.memory vm in
          let ht, _ = create vm ~payload_size:8 ~capacity_hint:4 in
          List.iteri
            (fun i k ->
              let p, _ = insert vm ht (Hashes.hash64 k) in
              Memory.store64 m p (Int64.of_int i))
            inserted;
          check Alcotest.bool (name ^ ": layout") true
            (Htable.mode m ht = expect_mode);
          List.iter
            (fun k ->
              let h = Hashes.hash64 k in
              let rec walk e acc =
                if e = 0 then List.rev acc
                else
                  let v = Memory.load64 m (e + 8) in
                  let e', _ = next vm ht e h in
                  walk e' (v :: acc)
              in
              let e, _ = lookup vm ht h in
              check Alcotest.(list int64)
                (Printf.sprintf "%s: chain of key %Ld" name k)
                (model inserted k) (walk e []))
            (List.sort_uniq compare inserted)
        in
        check_against_model "direct" ~expect_mode:`Direct keys;
        (* forced tagged from the first inserts: two far-apart keys *)
        check_against_model "tagged" ~expect_mode:`Tagged
          ([ 7L; 777_777_777L ] @ keys);
        (* mid-build fallback: the outlier arrives after the dense keys,
           then more duplicates land in the migrated table *)
        check_against_model "fallback" ~expect_mode:`Tagged
          (keys @ [ 99_999_999L ] @ List.init 40 (fun k -> Int64.of_int k)));
  ]

let chain_cases =
  let dup_chain_test ?expect_mode name keys =
    Alcotest.test_case name `Quick (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let ht, _ = create vm ~payload_size:8 ~capacity_hint:4 in
        (* three duplicates per key, interleaved so several grows land
           mid-stream; payload encodes (key, dup ordinal) *)
        List.iter
          (fun d ->
            List.iter
              (fun k ->
                let p, _ = insert vm ht (Hashes.hash64 k) in
                Memory.store64 m p Int64.(add (mul k 10L) (of_int d)))
              keys)
          [ 0; 1; 2 ];
        check Alcotest.bool "grew" true
          (Htable.capacity m ht > 16 || Htable.count m ht <= 11);
        Option.iter
          (fun mode -> check Alcotest.bool "layout" true (Htable.mode m ht = mode))
          expect_mode;
        List.iter
          (fun k ->
            let h = Hashes.hash64 k in
            let e1, _ = lookup vm ht h in
            let e2, _ = next vm ht e1 h in
            let e3, _ = next vm ht e2 h in
            let e4, _ = next vm ht e3 h in
            check Alcotest.int "chain exhausted" 0 e4;
            check
              Alcotest.(list int64)
              "insertion order preserved across grow"
              Int64.[ mul k 10L; add (mul k 10L) 1L; add (mul k 10L) 2L ]
              (List.map (fun e -> Memory.load64 m (e + 8)) [ e1; e2; e3 ]))
          keys)
  in
  [
    dup_chain_test "duplicate chain order across grow (tagged)"
      (List.init 60 (fun i -> Int64.of_int ((i * 131071) + 7)));
    dup_chain_test "duplicate chain order across grow (direct)"
      (List.init 60 (fun i -> Int64.of_int i));
    (* the outlier ends the first pass, so every chain starts in the
       direct arena and continues in the migrated tagged one *)
    dup_chain_test ~expect_mode:`Tagged
      "duplicate chain order across grow (direct -> tagged fallback)"
      (List.init 59 (fun i -> Int64.of_int i) @ [ 10_000_000L ]);
  ]

let probe_cases =
  [
    Alcotest.test_case "tag false-positive rate is bounded" `Quick (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let ht, _ = create vm ~payload_size:8 ~capacity_hint:16 in
        for i = 0 to 4095 do
          ignore (insert vm ht (scrambled i))
        done;
        check Alcotest.bool "tagged" true (Htable.mode m ht = `Tagged);
        let s0 = Htable.stats () in
        let misses = 4096 in
        for i = 0 to misses - 1 do
          let e, _ = lookup vm ht (scrambled (1_000_000 + i)) in
          check Alcotest.int "absent" 0 e
        done;
        let s1 = Htable.stats () in
        let hits = s1.Htable.tag_hits - s0.Htable.tag_hits in
        let words = s1.Htable.tag_words - s0.Htable.tag_words in
        (* each scanned word covers 4 slots; a 16-bit tag false-positives
           at ~2^-16 per occupied slot, so even with the forced-nonzero
           fold the expected count here is < 1. Allow a loose 16. *)
        check Alcotest.bool
          (Printf.sprintf "few false positives (%d hits / %d words)" hits
             words)
          true
          (hits <= 16);
        (* the whole point: a miss probe costs ~7 cycles, not 12+ *)
        let cycles =
          s1.Htable.probe_cycles - s0.Htable.probe_cycles
        in
        check Alcotest.bool
          (Printf.sprintf "miss probes are cheap (%d cycles / %d probes)"
             cycles misses)
          true
          (cycles < 9 * misses));
    Alcotest.test_case "lookup/next probe cost monotone and calibrated"
      `Quick (fun () ->
        let walk_costs ?(force_tagged = false) k dups =
          let vm = fresh () in
          let m = Emu.memory vm in
          let ht, _ = create vm ~payload_size:8 ~capacity_hint:64 in
          (* a single repeated key keeps the direct window at span 0;
             two far-apart warm-up keys force the tagged fallback *)
          if force_tagged then begin
            ignore (insert vm ht (Hashes.hash64 7L));
            ignore (insert vm ht (Hashes.hash64 777_777_777L));
            check Alcotest.bool "fallback forced" true
              (Htable.mode m ht <> `Direct)
          end;
          let h = Hashes.hash64 k in
          for _ = 1 to dups do
            ignore (insert vm ht h)
          done;
          let e0, c0 = lookup vm ht h in
          let rec walk e acc =
            let e', c = next vm ht e h in
            if e' = 0 then List.rev (c :: acc) else walk e' (c :: acc)
          in
          (c0, walk e0 [])
          (* per-step costs, last one is the exhausted probe *)
        in
        let dups = 12 in
        let c0, steps =
          walk_costs ~force_tagged:true 987_654_321L dups
        in
        check Alcotest.int "chain length" dups (List.length steps);
        check Alcotest.bool "tagged lookup base" true (c0 >= 6 && c0 <= 14);
        List.iter
          (fun c -> check Alcotest.bool "tagged step bounded" true (c >= 4 && c <= 14))
          steps;
        (* cumulative cost is strictly monotone in chain position *)
        let _ =
          List.fold_left
            (fun acc c ->
              let acc' = acc + c in
              check Alcotest.bool "monotone" true (acc' > acc);
              acc')
            c0 steps
        in
        let c0d, steps_d = walk_costs 5L dups in
        check Alcotest.bool "direct lookup flat" true (c0d <= 5);
        List.iter
          (fun c -> check Alcotest.int "direct step is 3" 3 c)
          steps_d);
    Alcotest.test_case "direct and tagged charges are pinned" `Quick
      (fun () ->
        (* exact per-call charges of a short fixed sequence in each layout:
           [bench join]'s cycle totals and the committed BENCH_join.json
           are sums of these *)
        let charges warmup =
          let vm = fresh () in
          let m = Emu.memory vm in
          let ht, ccost = create vm ~payload_size:8 ~capacity_hint:16 in
          let ins k = snd (insert vm ht (Hashes.hash64 k)) in
          let warm = List.map ins warmup in
          let inserts = List.map ins [ 5L; 6L; 5L ] in
          let h5 = Hashes.hash64 5L in
          let e1, l1 = lookup vm ht h5 in
          let e2, n1 = next vm ht e1 h5 in
          let e3, n2 = next vm ht e2 h5 in
          check Alcotest.int "chain of two" 0 e3;
          let miss, l2 = lookup vm ht (Hashes.hash64 9L) in
          check Alcotest.int "miss" 0 miss;
          (Htable.mode m ht, (ccost :: warm) @ inserts @ [ l1; n1; n2; l2 ])
        in
        let mode_d, direct = charges [] in
        check Alcotest.bool "direct layout" true (mode_d = `Direct);
        (* create 200 + zeroing 16 x 24 bytes; the first insert opens
           the 64-bucket window (20 + zeroing); a dup appends at the
           chain tail; hit 5, next 3, in-window miss 4 *)
        check Alcotest.(list int) "direct charges"
          [ 212; 36; 8; 8; 5; 3; 3; 4 ] direct;
        let mode_t, tagged = charges [ 7L; 777_777_777L ] in
        check Alcotest.bool "tagged layout" true (mode_t = `Tagged);
        (* the second warm-up key migrates the table to tagged probing;
           tagged charges then depend on the tag words each probe reads *)
        check Alcotest.(list int) "tagged charges"
          [ 212; 36; 52; 13; 13; 14; 10; 8; 5; 7 ] tagged);
  ]

let accounting_cases =
  [
    Alcotest.test_case "create and growth charge for arena zeroing" `Quick
      (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let ht, cost = create vm ~payload_size:8 ~capacity_hint:1024 in
        let esz = Htable.entry_size m ht in
        check Alcotest.bool
          (Printf.sprintf "create charges zeroing (%d)" cost)
          true
          (cost >= 200 + (1024 * esz / 32));
        (* force fallback then growth; the growing insert must charge at
           least the fresh arena's zero cost *)
        let max_insert = ref 0 in
        for i = 0 to 2999 do
          let _, c = insert vm ht (scrambled i) in
          if c > !max_insert then max_insert := c
        done;
        let cap = Htable.capacity m ht in
        check Alcotest.bool "grew" true (cap * esz > 1024 * esz);
        check Alcotest.bool
          (Printf.sprintf "grow insert charged zeroing (max %d)" !max_insert)
          true
          (!max_insert >= cap * esz / 32));
    Alcotest.test_case "grow frees the old arena (leak regression)" `Quick
      (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let live0 = Memory.live_data_bytes m in
        let freed0 = Memory.freed_data_bytes m in
        let ht, _ = create vm ~payload_size:16 ~capacity_hint:16 in
        for i = 0 to 4999 do
          ignore (insert vm ht (scrambled i))
        done;
        let esz = Htable.entry_size m ht in
        let cap = Htable.capacity m ht in
        let live = Memory.live_data_bytes m - live0 in
        (* live = header + current arena + tag array; every older arena
           must have been freed *)
        check Alcotest.bool
          (Printf.sprintf "no abandoned arenas (live %d, arena %d)" live
             (cap * esz))
          true
          (live <= 64 + (cap * esz) + (cap * 2) + 512);
        check Alcotest.bool "growth freed bytes" true
          (Memory.freed_data_bytes m > freed0));
    Alcotest.test_case "zero net growth across 100 grow cycles" `Quick
      (fun () ->
        let vm = fresh () in
        let m = Emu.memory vm in
        let live0 = Memory.live_data_bytes m in
        let s0 = Htable.stats () in
        for _round = 1 to 12 do
          let scope = Memory.new_scope () in
          Memory.with_scope scope (fun () ->
              let ht, _ = create vm ~payload_size:8 ~capacity_hint:16 in
              (* 3000 sparse keys drive 16 -> 8192: nine grows per round *)
              for i = 0 to 2999 do
                ignore (insert vm ht (scrambled i))
              done);
          Memory.free_scope m scope;
          check Alcotest.int "live returns to baseline" live0
            (Memory.live_data_bytes m)
        done;
        let s1 = Htable.stats () in
        check Alcotest.bool "exercised 100+ grows" true
          (s1.Htable.grows - s0.Htable.grows >= 100));
  ]

let guard_cases =
  [
    Alcotest.test_case "stale entry address after grow is rejected" `Quick
      (fun () ->
        let vm = fresh () in
        let ht, _ = create vm ~payload_size:8 ~capacity_hint:16 in
        let h = scrambled 1 in
        ignore (insert vm ht h);
        let e, _ = lookup vm ht h in
        check Alcotest.bool "found" true (e <> 0);
        (* grow several times: the old arena is freed and recycled *)
        for i = 2 to 2000 do
          ignore (insert vm ht (scrambled i))
        done;
        (match next vm ht e h with
        | exception Qcomp_runtime.Rt_error.Query_error msg ->
            check Alcotest.bool "mentions staleness" true
              (String.length msg > 0)
        | e', _ ->
            (* only acceptable if the address is coincidentally still a
               valid slot of the *current* arena — never silent garbage *)
            Alcotest.failf "stale next returned 0x%x" e');
        (* a fresh lookup still works *)
        let e2, _ = lookup vm ht h in
        check Alcotest.bool "fresh lookup fine" true (e2 <> 0));
    Alcotest.test_case "zero hash is normalized in every layout" `Quick
      (fun () ->
        (* Direct as created, and Tagged after two far-apart warm-up keys *)
        List.iter
          (fun warmup ->
            let vm = fresh () in
            let m = Emu.memory vm in
            let ht, _ = create vm ~payload_size:8 ~capacity_hint:4 in
            List.iter
              (fun k -> ignore (insert vm ht (Hashes.hash64 k)))
              warmup;
            let p, _ = insert vm ht 0L in
            Memory.store64 m p 9L;
            let e, _ = lookup vm ht 0L in
            check Alcotest.bool "found" true (e <> 0);
            check Alcotest.int64 "payload" 9L (Memory.load64 m (e + 8)))
          [ []; [ 7L; 777_777_777L ] ]);
    Alcotest.test_case "iter visits every payload once (direct + tagged)"
      `Quick (fun () ->
        List.iter
          (fun mk ->
            let vm = fresh () in
            let m = Emu.memory vm in
            let ht, _ = create vm ~payload_size:8 ~capacity_hint:4 in
            for i = 1 to 40 do
              let p, _ = insert vm ht (mk i) in
              Memory.store64 m p (Int64.of_int i)
            done;
            let seen = Hashtbl.create 40 in
            Htable.iter m ht (fun p ->
                Hashtbl.replace seen (Memory.load64 m p) ());
            check Alcotest.int "40 distinct" 40 (Hashtbl.length seen))
          [ (fun i -> Hashes.hash64 (Int64.of_int i)) (* direct *);
            (fun i -> scrambled i) (* tagged *) ]);
  ]

(* ---------------- host cost and counters ---------------- *)

(* A registry function called the way generated code calls it: arguments
   in the argument registers, dispatched by runtime address. *)
let rt_call vm rt name (args : int64 array) =
  let addr = Int64.to_int (Registry.addr rt name) in
  fun () ->
    for k = 0 to Array.length args - 1 do
      Emu.set_reg vm (Emu.arg_reg vm k) args.(k)
    done;
    Emu.dispatch_runtime vm addr

let rt_result vm = Emu.reg vm vm.Emu.target.Target.ret_regs.(0)

let host_cases =
  [
    Alcotest.test_case "registry probes allocate only the boxed hash and key"
      `Quick (fun () ->
        (* Minor-heap words per umbra_htLookup and umbra_htNext registry
           call, the hashes boxed beforehand. Each call boxes the hash it
           reads from its argument register (3 words); a Direct probe also
           boxes the key Hashes.unhash64 recovers (3 more). Before the
           probe paths read memory in-module and returned one address,
           Htable.lookup alone allocated 24 words per call on a Direct
           table and 39 on a Tagged one. *)
        List.iter
          (fun (layout, key, ceiling) ->
            let vm = fresh () in
            let rt = Registry.create Target.x64 in
            Registry.install rt vm;
            rt_call vm rt "umbra_htCreate" [| 8L; 16L |] ();
            let ht = rt_result vm in
            let n = 2000 in
            let hashes = Array.init n key in
            Array.iter (fun h -> rt_call vm rt "umbra_htInsert" [| ht; h |] ()) hashes;
            check Alcotest.bool "layout" true (Htable.mode (Emu.memory vm) (Int64.to_int ht) = layout);
            let entries =
              Array.map
                (fun h ->
                  rt_call vm rt "umbra_htLookup" [| ht; h |] ();
                  rt_result vm)
                hashes
            in
            (* the calls are built before counting *)
            let per_call calls =
              let w0 = Gc.minor_words () in
              Array.iter (fun call -> call ()) calls;
              (Gc.minor_words () -. w0) /. float_of_int n
            in
            let lw = per_call (Array.map (fun h -> rt_call vm rt "umbra_htLookup" [| ht; h |]) hashes) in
            let nw =
              per_call
                (Array.mapi (fun i h -> rt_call vm rt "umbra_htNext" [| ht; entries.(i); h |]) hashes)
            in
            let name = if layout = `Direct then "direct" else "tagged" in
            check Alcotest.bool
              (Printf.sprintf "%s lookup: %.1f words per call <= %.0f" name lw ceiling)
              true (lw <= ceiling);
            check Alcotest.bool
              (Printf.sprintf "%s next: %.1f words per call <= 3" name nw)
              true (nw <= 3.0))
          [
            (`Direct, (fun i -> Hashes.hash64 (Int64.of_int i)), 6.0);
            (`Tagged, scrambled, 3.0);
          ]);
    Alcotest.test_case "probe counters lose no update across domains" `Quick
      (fun () ->
        (* Two domains probe their own tables at the same time; the summed
           counters must see every probe and every charged cycle. *)
        let vm = fresh () in
        let n = 100_000 in
        let go = Atomic.make 0 in
        let worker d () =
          let vm = Emu.context vm in
          let ht = Htable.create vm ~payload_size:8 ~capacity_hint:64 in
          (* half of the keys probed are present *)
          let keys = Array.init 64 (fun i -> scrambled ((1000 * d) + i)) in
          for i = 0 to 31 do
            ignore (Htable.insert vm ht keys.(i))
          done;
          Atomic.incr go;
          while Atomic.get go < 2 do
            Domain.cpu_relax ()
          done;
          let c0 = Emu.cycles vm in
          for i = 0 to n - 1 do
            ignore (Htable.lookup vm ht keys.(i land 63))
          done;
          Emu.cycles vm - c0
        in
        let s0 = Htable.stats () in
        let doms = List.init 2 (fun d -> Domain.spawn (worker d)) in
        let cycles = List.fold_left ( + ) 0 (List.map Domain.join doms) in
        let s1 = Htable.stats () in
        check Alcotest.int "probes" (2 * n) (s1.Htable.probes - s0.Htable.probes);
        check Alcotest.int "probe cycles" cycles
          (s1.Htable.probe_cycles - s0.Htable.probe_cycles));
  ]

let suite =
  mode_cases @ chain_cases @ probe_cases @ accounting_cases @ guard_cases @ host_cases
