(* Additional property tests: LIKE-pattern matching against a reference
   matcher, label/fixup resolution in the assembler, and a model test of
   the VM memory. *)

open Qcomp_vm
open Qcomp_runtime

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* reference SQL LIKE: % = any run, _ = one char; naive backtracking *)
let rec like_ref s i p j =
  if j >= String.length p then i >= String.length s
  else
    match p.[j] with
    | '%' ->
        let rec try_at k = k <= String.length s && (like_ref s k p (j + 1) || try_at (k + 1)) in
        try_at i
    | '_' -> i < String.length s && like_ref s (i + 1) p (j + 1)
    | c -> i < String.length s && s.[i] = c && like_ref s (i + 1) p (j + 1)

let gen_str = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 12))

let gen_pat =
  QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '%'; '_' ]) (int_bound 8))

let like_cases =
  [
    prop "LIKE agrees with reference matcher" QCheck2.Gen.(pair gen_str gen_pat)
      (fun (s, p) ->
        let m = Memory.create (1 lsl 16) in
        Sso.like m ~str:(Sso.alloc m s) ~pat:(Sso.alloc m p) = like_ref s 0 p 0);
    prop "LIKE with long strings (heap SSO path)"
      QCheck2.Gen.(pair gen_str gen_pat)
      (fun (s, p) ->
        (* pad beyond the 12-byte inline limit on both sides *)
        let s = s ^ "xxxxxxxxxxxxxxxx" in
        let p = p ^ "xxxxxxxxxxxxxxxx" in
        let m = Memory.create (1 lsl 16) in
        Sso.like m ~str:(Sso.alloc m s) ~pat:(Sso.alloc m p) = like_ref s 0 p 0);
  ]

(* assembler labels: a random spine of nops with jumps between random
   labels must decode with every jump landing exactly on its label *)
let label_cases =
  [
    prop ~count:200 "every patched jump lands on its label"
      QCheck2.Gen.(
        pair (oneofl [ Target.x64; Target.a64 ])
          (list_size (int_range 1 20) (pair (int_bound 9) (int_bound 9))))
      (fun (target, jumps) ->
        let a = Asm.create target in
        let labels = Array.init 10 (fun _ -> Asm.new_label a) in
        (* segment k: bind label k, some nops, then jumps of this segment *)
        let per_seg = Array.make 10 [] in
        List.iter (fun (seg, dst) -> per_seg.(seg) <- dst :: per_seg.(seg)) jumps;
        Array.iteri
          (fun k dsts ->
            Asm.bind a labels.(k);
            Asm.emit a Minst.Nop;
            List.iter (fun d -> Asm.jmp a labels.(d)) dsts;
            ignore k)
          per_seg;
        Asm.emit a Minst.Ret;
        let blob = Asm.finish a in
        let insts, off2idx = Emu.decode_all target blob in
        (* every Jmp target must be a label offset, and that offset must
           decode to an instruction boundary *)
        Array.for_all
          (fun i ->
            match i with
            | Minst.Jmp t ->
                t >= 0 && t < Bytes.length blob + 1 && off2idx.(t) >= 0
                && Array.exists (fun l -> Asm.label_offset a l = t) labels
            | _ -> true)
          insts);
  ]

(* memory model: random typed stores then loads read back the last write *)
type mem_op = { addr : int; size : int; value : int64 }

let gen_mem_ops =
  QCheck2.Gen.(
    list_size (int_range 1 50)
      (map3
         (fun a szk v ->
           let size = [| 1; 2; 4; 8 |].(szk) in
           { addr = 0x2000 + (a * 8); size; value = v })
         (int_bound 63) (int_bound 3) ui64))

let truncate_to size v =
  match size with
  | 1 -> Int64.logand v 0xFFL
  | 2 -> Int64.logand v 0xFFFFL
  | 4 -> Int64.logand v 0xFFFF_FFFFL
  | _ -> v

let memory_cases =
  [
    prop ~count:200 "stores then loads obey last-writer-wins" gen_mem_ops (fun ops ->
        let m = Memory.create (1 lsl 16) in
        let model = Hashtbl.create 64 (* byte addr -> byte *) in
        List.iter
          (fun { addr; size; value } ->
            Memory.store m ~addr ~size value;
            for k = 0 to size - 1 do
              Hashtbl.replace model (addr + k)
                (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * k)) 0xFFL))
            done)
          ops;
        List.for_all
          (fun { addr; size; _ } ->
            let expect = ref 0L in
            for k = size - 1 downto 0 do
              let b = Option.value ~default:0 (Hashtbl.find_opt model (addr + k)) in
              expect := Int64.logor (Int64.shift_left !expect 8) (Int64.of_int b)
            done;
            let got = Memory.load m ~addr ~size ~sext:false in
            Int64.equal got (truncate_to size !expect))
          ops);
  ]

let suite = like_cases @ label_cases @ memory_cases
