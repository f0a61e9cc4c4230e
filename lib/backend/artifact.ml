(** Relocatable compiled artifacts.

    A back-end's output *before* linking: position-independent code bytes,
    the symbol table, the pending relocation list, per-function unwind
    rows (text-relative), and the set of absolute runtime addresses the
    code generator baked in as immediates. Everything a
    {!Backend.compiled_module} needs except an address — so an artifact
    can outlive the [Emu] layout it was compiled under, be serialized into
    a code-cache snapshot, and be re-linked into a fresh process by
    {!Backend.link_artifact}.

    The byte format is strict: {!deserialize} raises [Invalid_argument] on
    any truncation, bad tag, out-of-range offset or trailing garbage, so a
    corrupted snapshot fails loudly instead of producing a bad link or an
    emulator trap. *)

open Qcomp_vm

(** Bumped whenever the byte format below (or the meaning of any field)
    changes; folded into snapshot keys so stale snapshots are rejected,
    never mis-linked. Version 2 added parameter holes ([Param]/[Param_hi]
    relocations plus the [a_params] descriptor). *)
let format_version = 2

type reloc_kind =
  | Plt32
  | Abs64
  | Param of int
      (** 8-byte hole bound at link time from entry [i] of the query's
          parameter vector: the raw value for ints, the SSO struct
          address for strings. [r_sym] is unused (empty). *)
  | Param_hi of int
      (** high 64-bit lane of a 128-bit parameter: patched with
          [value asr 63] (decimals are sign-extended from 64 bits) *)

type reloc = { r_off : int; r_sym : string; r_kind : reloc_kind }

(** What each parameter slot expects; index [i] of this array describes
    vector entry [i]. *)
type param_kind = Pk_int | Pk_str

(** A bound parameter value, supplied to [Backend.link_artifact ~params]. *)
type param_value = Pv_int of int64 | Pv_str of string

let param_kind_of_value = function Pv_int _ -> Pk_int | Pv_str _ -> Pk_str

type symbol = { s_name : string; s_off : int; s_size : int; s_defined : bool }

(** One function's unwind table, with [uf_start] relative to the text
    section (the linker rebases it). *)
type unwind_fn = {
  uf_start : int;
  uf_size : int;
  uf_sync_only : bool;
  uf_rows : (int * Unwind.cfa_rule) list;
}

type t = {
  a_backend : string;  (** producing back-end ({!Backend.name}) *)
  a_target : string;  (** {!Target.name} the code was emitted for *)
  a_text : bytes;  (** position-independent code (PLT-stub-free) *)
  a_syms : symbol list;
  a_relocs : reloc list;
  a_unwind : unwind_fn list;
  a_baked : (string * int64) list;
      (** runtime symbols whose absolute dispatch address the back-end
          baked into [a_text] as an immediate; the linker re-checks each
          against the live registry and refuses to link on mismatch *)
  a_params : param_kind array;
      (** parameter slots the text's [Param]/[Param_hi] holes draw from;
          empty for a whole-plan (fully baked) artifact *)
  a_stats : (string * int) list;  (** back-end counters (pre-link) *)
  a_code_size : int;  (** reported code size (may exceed [a_text]) *)
}

(* ---------------- serialization ---------------- *)

let magic = "QART"

let serialize (a : t) : string =
  let buf = Buffer.create (Bytes.length a.a_text + 512) in
  let u8 v = Buffer.add_uint8 buf v in
  let u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let i64 v = Buffer.add_int64_le buf v in
  let str s =
    u32 (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf magic;
  u32 format_version;
  str a.a_backend;
  str a.a_target;
  u32 a.a_code_size;
  u32 (Bytes.length a.a_text);
  Buffer.add_bytes buf a.a_text;
  u32 (List.length a.a_syms);
  List.iter
    (fun s ->
      str s.s_name;
      u32 s.s_off;
      u32 s.s_size;
      u8 (if s.s_defined then 1 else 0))
    a.a_syms;
  u32 (List.length a.a_relocs);
  List.iter
    (fun r ->
      str r.r_sym;
      u32 r.r_off;
      match r.r_kind with
      | Plt32 -> u8 0
      | Abs64 -> u8 1
      | Param i ->
          u8 2;
          u32 i
      | Param_hi i ->
          u8 3;
          u32 i)
    a.a_relocs;
  u32 (Array.length a.a_params);
  Array.iter (fun k -> u8 (match k with Pk_int -> 0 | Pk_str -> 1)) a.a_params;
  u32 (List.length a.a_unwind);
  List.iter
    (fun f ->
      u32 f.uf_start;
      u32 f.uf_size;
      u8 (if f.uf_sync_only then 1 else 0);
      u32 (List.length f.uf_rows);
      List.iter
        (fun (loc, (r : Unwind.cfa_rule)) ->
          u32 loc;
          u32 r.Unwind.cfa_offset;
          u32 (List.length r.Unwind.saved_regs);
          List.iter
            (fun (reg, off) ->
              u32 reg;
              u32 off)
            r.Unwind.saved_regs)
        f.uf_rows)
    a.a_unwind;
  u32 (List.length a.a_baked);
  List.iter
    (fun (s, addr) ->
      str s;
      i64 addr)
    a.a_baked;
  u32 (List.length a.a_stats);
  List.iter
    (fun (s, v) ->
      str s;
      i64 (Int64.of_int v))
    a.a_stats;
  Buffer.contents buf

let corrupt what = invalid_arg ("Artifact.deserialize: " ^ what)

let deserialize (s : string) : t =
  let len = String.length s in
  let pos = ref 0 in
  let need n = if n < 0 || !pos + n > len then corrupt "truncated" in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    if v < 0 then corrupt "negative length or offset";
    v
  in
  let i64 () =
    need 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let flag what =
    match u8 () with 0 -> false | 1 -> true | _ -> corrupt ("bad " ^ what)
  in
  (* a count of fixed-size records cannot promise more bytes than remain *)
  let count ~min_record =
    let n = u32 () in
    if n * min_record > len - !pos then corrupt "impossible count";
    n
  in
  need 4;
  if not (String.equal (String.sub s 0 4) magic) then corrupt "bad magic";
  pos := 4;
  let ver = u32 () in
  if ver <> format_version then
    corrupt
      (Printf.sprintf "format version %d (this build reads %d)" ver
         format_version);
  let a_backend = str () in
  let a_target = str () in
  let a_code_size = u32 () in
  let text_len = u32 () in
  need text_len;
  let a_text = Bytes.of_string (String.sub s !pos text_len) in
  pos := !pos + text_len;
  let in_text ~what off n =
    if off < 0 || n < 0 || off + n > text_len then
      corrupt (what ^ " outside the text section")
  in
  let a_syms =
    List.init (count ~min_record:17) (fun _ ->
        let s_name = str () in
        let s_off = u32 () in
        let s_size = u32 () in
        let s_defined = flag "symbol flag" in
        if s_defined then in_text ~what:"symbol" s_off s_size;
        { s_name; s_off; s_size; s_defined })
  in
  let a_relocs =
    List.init (count ~min_record:13) (fun _ ->
        let r_sym = str () in
        let r_off = u32 () in
        let r_kind =
          match u8 () with
          | 0 -> Plt32
          | 1 -> Abs64
          | 2 -> Param (u32 ())
          | 3 -> Param_hi (u32 ())
          | _ -> corrupt "bad relocation kind"
        in
        in_text ~what:"relocation" r_off
          (match r_kind with Plt32 -> 4 | Abs64 | Param _ | Param_hi _ -> 8);
        { r_off; r_sym; r_kind })
  in
  let a_params =
    Array.init (count ~min_record:1) (fun _ ->
        match u8 () with
        | 0 -> Pk_int
        | 1 -> Pk_str
        | _ -> corrupt "bad parameter kind")
  in
  let a_unwind =
    List.init (count ~min_record:13) (fun _ ->
        let uf_start = u32 () in
        let uf_size = u32 () in
        let uf_sync_only = flag "unwind flag" in
        in_text ~what:"unwind range" uf_start uf_size;
        let uf_rows =
          List.init (count ~min_record:12) (fun _ ->
              let loc = u32 () in
              let cfa_offset = u32 () in
              let saved_regs =
                List.init (count ~min_record:8) (fun _ ->
                    let reg = u32 () in
                    let off = u32 () in
                    (reg, off))
              in
              (loc, { Unwind.cfa_offset; saved_regs }))
        in
        { uf_start; uf_size; uf_sync_only; uf_rows })
  in
  let a_baked =
    List.init (count ~min_record:12) (fun _ ->
        let name = str () in
        let addr = i64 () in
        (name, addr))
  in
  let a_stats =
    List.init (count ~min_record:12) (fun _ ->
        let name = str () in
        let v = i64 () in
        (name, Int64.to_int v))
  in
  if !pos <> len then corrupt "trailing bytes";
  {
    a_backend;
    a_target;
    a_text;
    a_syms;
    a_relocs;
    a_unwind;
    a_baked;
    a_params;
    a_stats;
    a_code_size;
  }

(* ---------------- parameter descriptors ---------------- *)

(* the opcode column directly: every back-end pays this scan per query,
   and a [Func.op] call per instruction would dominate it *)
let has_param (f : Qcomp_ir.Func.t) =
  let ops = f.Qcomp_ir.Func.ops and n = Qcomp_ir.Func.num_insts f in
  let rec go i = i < n && (Array.unsafe_get ops i == Qcomp_ir.Op.Param || go (i + 1)) in
  go 0

(** Slot descriptor of an IR module's [Op.Param] holes: entry [i] is the
    kind of parameter [i]. A pointer-typed hole is a string (the slot is
    patched with an SSO struct address); anything else is an int. Raises
    [Invalid_argument] when two holes disagree about one slot's kind. *)
let scan_params_of_module (m : Qcomp_ir.Func.modul) : param_kind array =
  (* most modules have no hole: one pass over the opcodes answers them *)
  if not (Qcomp_support.Vec.exists has_param m.Qcomp_ir.Func.funcs) then [||]
  else
  let tbl = Hashtbl.create 8 in
  let n = ref 0 in
  Qcomp_support.Vec.iter
    (fun f ->
      for i = 0 to Qcomp_ir.Func.num_insts f - 1 do
        if Qcomp_ir.Func.op f i = Qcomp_ir.Op.Param then begin
          let idx = Int64.to_int (Qcomp_ir.Func.imm f i) in
          let kind =
            if Qcomp_ir.Func.ty f i = Qcomp_ir.Ty.Ptr then Pk_str else Pk_int
          in
          (match Hashtbl.find_opt tbl idx with
          | Some k when k <> kind ->
              invalid_arg "Artifact.params_of_module: conflicting hole kinds"
          | _ -> Hashtbl.replace tbl idx kind);
          if idx + 1 > !n then n := idx + 1
        end
      done)
    m.Qcomp_ir.Func.funcs;
  (* a slot with no surviving hole (shouldn't happen with the normalizer's
     one-hole-per-slot discipline) defaults to int: binding still checks
     kinds against the vector *)
  Array.init !n (fun i ->
      match Hashtbl.find_opt tbl i with Some k -> k | None -> Pk_int)

let params_of_module (m : Qcomp_ir.Func.modul) : param_kind array =
  (* the declared signature is authoritative: a hole the generator
     dead-code-eliminated still occupies its slot in the bound vector, so
     the descriptor must be sized by declaration, not by surviving holes.
     Hand-built modules with no declaration fall back to scanning the IR. *)
  let declared = m.Qcomp_ir.Func.param_sig in
  if Array.length declared > 0 then
    Array.map
      (fun ty -> if ty = Qcomp_ir.Ty.Ptr then Pk_str else Pk_int)
      declared
  else scan_params_of_module m
