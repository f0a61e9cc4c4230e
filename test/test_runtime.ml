(* VM memory, SSO strings, the open-addressing hash table and the tuple
   buffer — the in-memory runtime the generated code manipulates. *)

open Qcomp_vm
open Qcomp_runtime

let check = Alcotest.check

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let fresh_mem () = Memory.create (1 lsl 22)

let memory_cases =
  [
    Alcotest.test_case "alloc alignment" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Memory.alloc m ~align:16 10 in
        let b = Memory.alloc m ~align:16 10 in
        check Alcotest.int "a aligned" 0 (a land 15);
        check Alcotest.int "b aligned" 0 (b land 15);
        check Alcotest.bool "disjoint" true (b >= a + 10));
    Alcotest.test_case "load/store widths and sign" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Memory.alloc m 16 in
        Memory.store m ~addr:a ~size:4 0xFFFF_FFFFL;
        check Alcotest.int64 "sext" (-1L) (Memory.load m ~addr:a ~size:4 ~sext:true);
        check Alcotest.int64 "zext" 0xFFFF_FFFFL
          (Memory.load m ~addr:a ~size:4 ~sext:false);
        Memory.store m ~addr:a ~size:2 0x8000L;
        check Alcotest.int64 "sext16" (-32768L) (Memory.load m ~addr:a ~size:2 ~sext:true));
    Alcotest.test_case "store64 little-endian bytes" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Memory.alloc m 8 in
        Memory.store64 m a 0x0102_0304_0506_0708L;
        check Alcotest.int64 "first byte is LSB" 8L
          (Memory.load m ~addr:a ~size:1 ~sext:false));
    Alcotest.test_case "out-of-range access faults" `Quick (fun () ->
        let m = Memory.create (16 * 4096) in
        match Memory.load64 m ((16 * 4096) - 4) with
        | exception Memory.Fault _ -> ()
        | _ -> Alcotest.fail "expected fault");
    Alcotest.test_case "low page is unmapped (null guard)" `Quick (fun () ->
        let m = Memory.create (16 * 4096) in
        match Memory.load64 m 0 with
        | exception Memory.Fault _ -> ()
        | _ -> Alcotest.fail "expected fault");
    Alcotest.test_case "blit and fill" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Memory.alloc m 16 and b = Memory.alloc m 16 in
        Memory.store_bytes m a "hello world!";
        Memory.blit m ~src:a ~dst:b ~len:12;
        check Alcotest.string "copied" "hello world!"
          (Memory.load_bytes m b 12);
        Memory.fill m ~addr:b ~len:12 '\000';
        check Alcotest.int64 "zeroed" 0L (Memory.load64 m b));
    Alcotest.test_case "a fresh arena reads zero everywhere" `Quick (fun () ->
        let size = 1 lsl 26 in
        let m = Memory.create size in
        let zero what a = check Alcotest.int64 what 0L (Memory.load64 m a) in
        zero "first usable word" Memory.page;
        zero "last word" (size - 8);
        let rng = Random.State.make [| 31 |] in
        for _ = 1 to 1000 do
          zero "above the break" (Memory.page + 4096 + Random.State.int rng (size - Memory.page - 4096 - 8))
        done;
        (* a second arena is fresh too, whatever the first one holds *)
        Memory.fill m ~addr:Memory.page ~len:(1 lsl 20) '\255';
        let m' = Memory.create size in
        check Alcotest.int64 "second arena" 0L (Memory.load64 m' Memory.page));
    Alcotest.test_case "a freed block comes back zeroed to the next alloc of its shape" `Quick
      (fun () ->
        let m = Memory.create (1 lsl 20) in
        let a = Memory.alloc m ~align:16 4096 in
        Memory.fill m ~addr:a ~len:4096 '\255';
        Memory.free m ~addr:a ~size:4096 ~align:16;
        let b = Memory.alloc m ~align:16 4096 in
        check Alcotest.int "the same block" a b;
        for k = 0 to 511 do
          check Alcotest.int64 "zero" 0L (Memory.load64 m (b + (8 * k)))
        done);
    Alcotest.test_case "accesses past either end fault with the access in the message" `Quick
      (fun () ->
        let size = 16 * Memory.page in
        let m = Memory.create size in
        let faults what n addr f =
          match f () with
          | _ -> Alcotest.failf "%s of %d bytes at 0x%x: no fault" what n addr
          | exception Memory.Fault msg ->
              check Alcotest.string what (Printf.sprintf "access of %d bytes at 0x%x" n addr) msg
        in
        List.iter
          (fun n ->
            (* one byte past the end, one byte into the null page, and an
               address whose end wraps past [max_int] *)
            List.iter
              (fun addr ->
                faults "load" n addr (fun () -> Memory.load m ~addr ~size:n ~sext:false);
                faults "sext load" n addr (fun () -> Memory.load m ~addr ~size:n ~sext:true);
                faults "store" n addr (fun () -> Memory.store m ~addr ~size:n 1L);
                faults "fill" n addr (fun () -> Memory.fill m ~addr ~len:n 'x');
                faults "store_bytes" n addr (fun () -> Memory.store_bytes m addr (String.make n 'x'));
                faults "load_bytes" n addr (fun () -> Memory.load_bytes m addr n);
                faults "blit from" n addr (fun () -> Memory.blit m ~src:addr ~dst:Memory.page ~len:n);
                faults "blit to" n addr (fun () -> Memory.blit m ~src:Memory.page ~dst:addr ~len:n);
                if n = 8 then begin
                  faults "load64" n addr (fun () -> Memory.load64 m addr);
                  faults "store64" n addr (fun () -> Memory.store64 m addr 1L)
                end)
              [ size - n + 1; Memory.page - 1; max_int - n + 2 ];
            (* the last in-range access of each width *)
            Memory.store m ~addr:(size - n) ~size:n (-1L);
            check Alcotest.int64 "last" (-1L) (Memory.load m ~addr:(size - n) ~size:n ~sext:true))
          [ 1; 2; 4; 8 ]);
  ]

(* [blit], [fill] and [store_bytes] over one region agree with the same
   operations on a [Bytes] copy of it: short spans, the word loops' tails,
   overlaps in both directions and spans long enough for [memmove]. *)
let span_region = 8192

let span_op =
  QCheck2.Gen.(
    let off = int_bound 3000 and len = oneof [ int_bound 600; int_range 600 2600 ] in
    oneof
      [
        map3 (fun s d n -> `Blit (s, d, n)) off off len;
        map3 (fun a n c -> `Fill (a, n, c)) off len char;
        map2 (fun a s -> `Store (a, s)) off (string_size (int_bound 80));
      ])

let show_span_op = function
  | `Blit (s, d, n) -> Printf.sprintf "blit %d -> %d, %d bytes" s d n
  | `Fill (a, n, c) -> Printf.sprintf "fill %d, %d bytes of %C" a n c
  | `Store (a, s) -> Printf.sprintf "store %d, %S" a s

let span_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"spans agree with a Bytes model"
         ~print:(fun ops -> String.concat "; " (List.map show_span_op ops))
         QCheck2.Gen.(list_size (int_range 1 6) span_op)
         (fun ops ->
           let m = fresh_mem () in
           (* odd addresses: no span starts word-aligned by luck *)
           let base = Memory.alloc m span_region + 1 in
           let model = Bytes.init (span_region - 1) (fun i -> Char.chr (((i * 31) + 7) land 255)) in
           Memory.store_bytes m base (Bytes.to_string model);
           List.iter
             (function
               | `Blit (s, d, n) ->
                   Memory.blit m ~src:(base + s) ~dst:(base + d) ~len:n;
                   Bytes.blit model s model d n
               | `Fill (a, n, c) ->
                   Memory.fill m ~addr:(base + a) ~len:n c;
                   Bytes.fill model a n c
               | `Store (a, s) ->
                   Memory.store_bytes m (base + a) s;
                   Bytes.blit_string s 0 model a (String.length s))
             ops;
           Memory.load_bytes m base (Bytes.length model) = Bytes.to_string model));
  ]

let sso_cases =
  [
    Alcotest.test_case "short strings stay inline" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Sso.alloc m "hi" in
        check Alcotest.string "read" "hi" (Sso.read m a);
        check Alcotest.int "len" 2 (Sso.length m a));
    Alcotest.test_case "12-byte boundary" `Quick (fun () ->
        let m = fresh_mem () in
        let s12 = String.make 12 'x' and s13 = String.make 13 'y' in
        check Alcotest.string "inline max" s12 (Sso.read m (Sso.alloc m s12));
        check Alcotest.string "first heap size" s13 (Sso.read m (Sso.alloc m s13)));
    Alcotest.test_case "long strings out of line" `Quick (fun () ->
        let m = fresh_mem () in
        let s = String.concat "," (List.init 50 string_of_int) in
        let a = Sso.alloc m s in
        check Alcotest.string "read" s (Sso.read m a);
        check Alcotest.int "len" (String.length s) (Sso.length m a));
    Alcotest.test_case "equal and compare" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Sso.alloc m "apple" and b = Sso.alloc m "apple" in
        let c = Sso.alloc m "banana" in
        check Alcotest.bool "eq" true (Sso.equal m a b);
        check Alcotest.bool "ne" false (Sso.equal m a c);
        check Alcotest.bool "lt" true (Sso.compare_str m a c < 0));
    Alcotest.test_case "empty string" `Quick (fun () ->
        let m = fresh_mem () in
        let a = Sso.alloc m "" in
        check Alcotest.string "empty" "" (Sso.read m a);
        check Alcotest.int "len 0" 0 (Sso.length m a));
    Alcotest.test_case "like patterns" `Quick (fun () ->
        let m = fresh_mem () in
        let s = Sso.alloc m "warehouse #42" in
        let like pat = Sso.like m ~str:s ~pat:(Sso.alloc m pat) in
        check Alcotest.bool "%house%" true (like "%house%");
        check Alcotest.bool "ware%" true (like "ware%");
        check Alcotest.bool "%42" true (like "%42");
        check Alcotest.bool "_arehouse%" true (like "_arehouse%");
        check Alcotest.bool "no match" false (like "%shed%");
        check Alcotest.bool "exact" true (like "warehouse #42");
        check Alcotest.bool "underscore counts" false (like "warehouse #4_2"));
    Alcotest.test_case "hash equal strings equal, long strings differ" `Quick
      (fun () ->
        let m = fresh_mem () in
        let a = Sso.alloc m "some longer string ........ A" in
        let b = Sso.alloc m "some longer string ........ A" in
        let c = Sso.alloc m "some longer string ........ B" in
        check Alcotest.int64 "same" (Sso.hash m a) (Sso.hash m b);
        check Alcotest.bool "differs" true (not (Int64.equal (Sso.hash m a) (Sso.hash m c))));
    (* the values the byte-at-a-time hash gave, for the strings over 12
       bytes of DirectEmit's intrinsic cases and one short one; a long
       string's hash reads whole words and must not move them *)
    Alcotest.test_case "hash values of long strings are pinned" `Quick (fun () ->
        let m = fresh_mem () in
        let reference s =
          let h = ref Sso.hash_seed in
          String.iter (fun c -> h := Qcomp_support.Hashes.crc32c_byte !h (Char.code c)) s;
          Qcomp_support.Hashes.long_mul_fold
            (Int64.logxor !h (Int64.of_int (String.length s)))
            Sso.golden
        in
        List.iter
          (fun (s, v) ->
            let got = Sso.hash m (Sso.alloc m s) in
            check Alcotest.int64 (String.escaped s) v got;
            if String.length s > Sso.inline_max then
              check Alcotest.int64 (String.escaped s ^ " = bytewise CRC") (reference s) got)
          [ ("abcdefghijklm", 31098256766774679L);
            ("abcdefghijklmn", -2482555525441443739L);
            ("abcdefghijklmnop", 4880323809022673670L);
            ("abcdefghijklmnopq", 1243006525601085717L);
            ("abcdefghijklmnopqrstuvwxyz0123456789ABC", -4855220521024204073L);
            ("abcdefghijklmnopqrstuvwxyz0123456789ABCD", 6535921355350275094L);
            ("abcdefghijklm\000", -4471851788246665745L);
            ("!bcdefghijklmnop", -8511177304663861141L);
            ("some longer string ........ A", -5539841442935520011L);
            ("abcdefghijkl", 6024095173560436176L) ]);
  ]

let sso_props =
  [
    prop "sso roundtrip" QCheck2.Gen.(string_size (int_bound 64)) (fun s ->
        let m = fresh_mem () in
        Sso.read m (Sso.alloc m s) = s);
    prop "sso equal is string equality" QCheck2.Gen.(pair (string_size (int_bound 24)) (string_size (int_bound 24)))
      (fun (a, b) ->
        let m = fresh_mem () in
        Sso.equal m (Sso.alloc m a) (Sso.alloc m b) = (a = b));
    prop "sso compare is String.compare sign" QCheck2.Gen.(pair (string_size (int_bound 24)) (string_size (int_bound 24)))
      (fun (a, b) ->
        let m = fresh_mem () in
        compare (Sso.compare_str m (Sso.alloc m a) (Sso.alloc m b)) 0
        = compare (String.compare a b) 0);
    (* short alphabets make matches and near-misses common; strings reach
       past the 12-byte inline limit *)
    prop "sso like agrees with a naive matcher"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 16))
          (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8)))
      (fun (s, p) ->
        let rec naive i j =
          if j = String.length p then i = String.length s
          else
            match p.[j] with
            | '%' -> naive i (j + 1) || (i < String.length s && naive (i + 1) j)
            | '_' -> i < String.length s && naive (i + 1) (j + 1)
            | c -> i < String.length s && s.[i] = c && naive (i + 1) (j + 1)
        in
        let m = fresh_mem () in
        Sso.like m ~str:(Sso.alloc m s) ~pat:(Sso.alloc m p) = naive 0 0);
    prop "sso has_prefix is String.starts_with"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 16))
          (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 14)))
      (fun (s, p) ->
        let m = fresh_mem () in
        Sso.has_prefix m ~str:(Sso.alloc m s) ~prefix:(Sso.alloc m p)
        = String.starts_with ~prefix:p s);
  ]

let htable_cases =
  [
    Alcotest.test_case "insert then lookup" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let ht = Htable.create vm ~payload_size:16 ~capacity_hint:4 in
        let p = Htable.insert vm ht 0xABCL in
        Memory.store64 m p 77L;
        let found = Htable.lookup vm ht 0xABCL in
        check Alcotest.bool "found" true (found <> 0);
        check Alcotest.int64 "payload" 77L (Memory.load64 m (found + 8)));
    Alcotest.test_case "lookup miss is 0" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        let found = Htable.lookup vm ht 0x123L in
        check Alcotest.int "miss" 0 found);
    Alcotest.test_case "duplicate hashes chained via next" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        let p1 = Htable.insert vm ht 5L in
        let p2 = Htable.insert vm ht 5L in
        Memory.store64 m p1 1L;
        Memory.store64 m p2 2L;
        let e1 = Htable.lookup vm ht 5L in
        let e2 = Htable.next vm ht e1 5L in
        let e3 = Htable.next vm ht e2 5L in
        check Alcotest.bool "two entries" true (e1 <> 0 && e2 <> 0 && e1 <> e2);
        check Alcotest.int "exhausted" 0 e3;
        let vals = List.sort compare [ Memory.load64 m (e1 + 8); Memory.load64 m (e2 + 8) ] in
        check Alcotest.(list int64) "both payloads" [ 1L; 2L ] vals);
    Alcotest.test_case "growth preserves entries" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        let n = 500 in
        for i = 1 to n do
          let h = Qcomp_support.Hashes.hash64 (Int64.of_int i) in
          let p = Htable.insert vm ht h in
          Memory.store64 m p (Int64.of_int i)
        done;
        check Alcotest.int "count" n (Htable.count m ht);
        check Alcotest.bool "grew" true (Htable.capacity m ht > 16);
        for i = 1 to n do
          let h = Qcomp_support.Hashes.hash64 (Int64.of_int i) in
          let e = Htable.lookup vm ht h in
          check Alcotest.bool "found after growth" true (e <> 0)
        done);
    Alcotest.test_case "a table on recycled arenas starts empty" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let keys = List.init 12 (fun i -> Qcomp_support.Hashes.hash64 (Int64.of_int (i + 1))) in
        (* a table filled with entries, then torn down with its query *)
        let scope = Memory.new_scope () in
        let entries =
          Memory.with_scope scope (fun () ->
              let ht = Htable.create vm ~payload_size:8 ~capacity_hint:16 in
              List.iter (fun h -> Memory.store64 m (Htable.insert vm ht h) (-1L)) keys;
              Memory.load64 m (ht + 24))
        in
        Memory.free_scope m scope;
        (* the same shape again reuses the arena, and reads as new *)
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:16 in
        check Alcotest.int64 "recycled entries arena" entries (Memory.load64 m (ht + 24));
        check Alcotest.int "empty" 0 (Htable.count m ht);
        List.iter (fun h -> check Alcotest.int "miss" 0 (Htable.lookup vm ht h)) keys;
        let bytes = Htable.capacity m ht * Int64.to_int (Memory.load64 m (ht + 16)) in
        for k = 0 to (bytes / 8) - 1 do
          check Alcotest.int64 "zero" 0L (Memory.load64 m (Int64.to_int entries + (8 * k)))
        done);
    Alcotest.test_case "zero hash is normalized, still findable" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        let p = Htable.insert vm ht 0L in
        Memory.store64 m p 9L;
        let e = Htable.lookup vm ht 0L in
        check Alcotest.bool "found" true (e <> 0));
    Alcotest.test_case "iter visits every payload once" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let ht = Htable.create vm ~payload_size:8 ~capacity_hint:4 in
        for i = 1 to 40 do
          let p = Htable.insert vm ht (Qcomp_support.Hashes.hash64 (Int64.of_int i)) in
          Memory.store64 m p (Int64.of_int i)
        done;
        let seen = Hashtbl.create 40 in
        Htable.iter m ht (fun p -> Hashtbl.replace seen (Memory.load64 m p) ());
        check Alcotest.int "40 distinct" 40 (Hashtbl.length seen));
  ]

let tuplebuf_cases =
  [
    Alcotest.test_case "append grows and preserves rows" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let buf = Tuplebuf.create m ~row_size:16 ~capacity_hint:2 in
        for i = 0 to 99 do
          let r = Tuplebuf.append vm buf in
          Memory.store64 m r (Int64.of_int i);
          Memory.store64 m (r + 8) (Int64.of_int (i * i))
        done;
        check Alcotest.int "count" 100 (Tuplebuf.count m buf);
        (* 6 a row, and a quarter of the rows moved at each of the grows
           at 16, 32 and 64 rows *)
        check Alcotest.int "cycles" (600 + 4 + 8 + 16) (Emu.cycles vm);
        for i = 0 to 99 do
          let r = Tuplebuf.row m buf i in
          check Alcotest.int64 "k" (Int64.of_int i) (Memory.load64 m r);
          check Alcotest.int64 "v" (Int64.of_int (i * i)) (Memory.load64 m (r + 8))
        done);
    Alcotest.test_case "append allocates nothing until it grows" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let buf = Tuplebuf.create (Emu.memory vm) ~row_size:8 ~capacity_hint:1000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Tuplebuf.append vm buf)
        done;
        check (Alcotest.float 0.) "minor words" 0. (Gc.minor_words () -. w0));
    Alcotest.test_case "permute reorders rows" `Quick (fun () ->
        let vm = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let m = Emu.memory vm in
        let buf = Tuplebuf.create m ~row_size:8 ~capacity_hint:4 in
        List.iter
          (fun v ->
            let r = Tuplebuf.append vm buf in
            Memory.store64 m r v)
          [ 30L; 10L; 20L ];
        ignore (Tuplebuf.permute m buf [| 1; 2; 0 |]);
        let at i = Memory.load64 m (Tuplebuf.row m buf i) in
        check Alcotest.(list int64) "sorted" [ 10L; 20L; 30L ] [ at 0; at 1; at 2 ]);
  ]

(* umbra_sort over [n] rows of one word each, through generated code
   that calls it with a comparator of the rows' first words *)
let sort_rows vals =
  let target = Target.x64 in
  let vm = Emu.create ~mem_size:(1 lsl 22) target in
  let reg = Registry.create target in
  Registry.install reg vm;
  let m = Emu.memory vm in
  let code insts =
    let a = Asm.create target in
    List.iter (Asm.emit a) insts;
    Int64.of_int (Code_region.base (Emu.register_code vm (Asm.finish a)))
  in
  let ld dst base = Minst.Ld { dst; base; off = 0; size = 8; sext = false } in
  (* (a > b) - (a < b) *)
  let cmp =
    code Minst.[ ld 0 7; ld 1 6; Cmp_rr (0, 1); Setcc (Sgt, 0); Setcc (Slt, 1); Alu_rr (Sub, 0, 1); Ret ]
  in
  let sort =
    code Minst.[ Mov_ri (11, Registry.addr reg "umbra_sort"); Call_ind 11; Ret ]
  in
  let buf = Tuplebuf.create m ~row_size:8 ~capacity_hint:(List.length vals) in
  List.iter (fun v -> Memory.store64 m (Tuplebuf.append vm buf) v) vals;
  let w0 = Gc.minor_words () in
  ignore (Emu.call vm ~addr:(Int64.to_int sort) ~args:[| Int64.of_int buf; cmp |]);
  let words = Gc.minor_words () -. w0 in
  (* the caller runs 3 instructions, each comparison 7 *)
  let comparisons = (Emu.instructions_executed vm - 3) / 7 in
  (List.init (List.length vals) (fun i -> Memory.load64 m (Tuplebuf.row m buf i)), words, comparisons)

let sort_cases =
  [
    (* each comparison boxed two row addresses, an argument array and a
       result pair before, at least 9 words; what is left is [Array.sort]'s
       own, a few words per row *)
    Alcotest.test_case "umbra_sort sorts without allocating per comparison" `Quick (fun () ->
        let n = 2000 in
        let vals = List.init n (fun i -> Int64.of_int ((i * 7919) mod 1009)) in
        let sorted, words, comparisons = sort_rows vals in
        check Alcotest.(list int64) "sorted" (List.sort compare vals) sorted;
        if comparisons < n then Alcotest.failf "%d comparisons for %d rows" comparisons n;
        if words >= float_of_int comparisons /. 2. then
          Alcotest.failf "%.0f minor words for %d comparisons" words comparisons);
  ]

let suite = memory_cases @ span_props @ sso_cases @ sso_props @ htable_cases @ tuplebuf_cases @ sort_cases
