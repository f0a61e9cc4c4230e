(** Growable row buffer in VM memory: the materialization target at the end
    of pipelines (temporary buffers, sort inputs, query output).

    Header (32 bytes): [count:u64][capacity:u64][row size:u64][data ptr]. *)

open Qcomp_vm

let header_size = 32

let create mem ~row_size ~capacity_hint =
  let cap = max 16 capacity_hint in
  let buf = Memory.alloc mem ~align:16 header_size in
  let data = Memory.alloc mem ~align:16 (cap * row_size) in
  Memory.store64 mem buf 0L;
  Memory.store64 mem (buf + 8) (Int64.of_int cap);
  Memory.store64 mem (buf + 16) (Int64.of_int row_size);
  Memory.store64 mem (buf + 24) (Int64.of_int data);
  buf

(* Header words are read and written through {!Memory}'s primitive
   accessors: dune's dev profile compiles with [-opaque], so calls of
   {!Memory.load64} and {!Memory.store64} would box the [int64] they take
   or return. *)
let[@inline] load_int (mem : Memory.t) addr =
  Memory.check mem addr 8;
  Int64.to_int (Memory.get64u mem.Memory.data addr)

let[@inline] store_int (mem : Memory.t) addr v =
  Memory.check mem addr 8;
  Memory.set64u mem.Memory.data addr (Int64.of_int v)

let count mem buf = load_int mem buf
let capacity mem buf = load_int mem (buf + 8)
let row_size mem buf = load_int mem (buf + 16)
let data_ptr mem buf = load_int mem (buf + 24)

let row mem buf i = data_ptr mem buf + (i * row_size mem buf)

(** Append a row to [buf] in [e]'s memory, charging [e] 6 cycles plus a
    quarter of a cycle per row moved when the buffer grows; returns the
    row's address. *)
let append e buf =
  let mem = Emu.memory e in
  let cnt = count mem buf and cap = capacity mem buf and rs = row_size mem buf in
  if cnt = cap then begin
    let cap' = 2 * cap in
    let data' = Memory.alloc mem ~align:16 (cap' * rs) in
    Memory.blit mem ~src:(data_ptr mem buf) ~dst:data' ~len:(cap * rs);
    store_int mem (buf + 8) cap';
    store_int mem (buf + 24) data';
    Emu.charge e (cnt / 4)
  end;
  store_int mem buf (cnt + 1);
  Emu.charge e 6;
  data_ptr mem buf + (cnt * rs)

(** Append all of [src]'s rows to [dst] (both buffers must share a row
    size), charging [e] for each append and 1 cycle per 32 bytes copied. *)
let concat_into e ~dst ~src =
  let mem = Emu.memory e in
  let n = count mem src in
  let rs = row_size mem dst in
  if row_size mem src <> rs then invalid_arg "Tuplebuf.concat_into";
  for i = 0 to n - 1 do
    let r = append e dst in
    Memory.blit mem ~src:(row mem src i) ~dst:r ~len:rs;
    Emu.charge e (rs / 32)
  done

(** Swap-free permutation application for sorting: rebuilds the data array
    in [perm] order. Returns cycle cost. *)
let permute mem buf perm =
  let cnt = count mem buf in
  let rs = row_size mem buf in
  let data = data_ptr mem buf in
  let tmp = Memory.alloc mem ~align:16 (cnt * rs) in
  Array.iteri (fun dst src -> Memory.blit mem ~src:(data + (src * rs)) ~dst:(tmp + (dst * rs)) ~len:rs) perm;
  Memory.blit mem ~src:tmp ~dst:data ~len:(cnt * rs);
  ignore buf;
  2 * cnt * (rs / 8 + 1)
