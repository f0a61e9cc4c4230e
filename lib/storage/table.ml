(** Columnar tables resident in VM memory.

    Every column is a contiguous array; generated scan code iterates row
    indices and loads cells by [base + row * stride] — exactly the access
    pattern the produce/consume code generator emits. *)

open Qcomp_vm

type t = {
  schema : Schema.t;
  rows : int;
  col_addrs : int array;
}

let create mem schema ~rows =
  let col_addrs =
    Array.map
      (fun (c : Schema.column) ->
        Memory.alloc mem ~align:16 (max 1 (rows * Schema.stride c.Schema.col_ty)))
      schema.Schema.cols
  in
  { schema; rows; col_addrs }

let rows t = t.rows
let schema t = t.schema
let col_addr t i = t.col_addrs.(i)

let cell_addr t col row =
  t.col_addrs.(col) + (row * Schema.stride (Schema.col_ty t.schema col))

(* ---- host-side accessors (data generation and result checking) ---- *)

let set_i64 mem t ~col ~row v =
  let ty = Schema.col_ty t.schema col in
  Memory.store mem ~addr:(cell_addr t col row) ~size:(Schema.stride ty) v

let get_i64 mem t ~col ~row =
  let ty = Schema.col_ty t.schema col in
  let sext = match ty with Schema.Int32 | Schema.Date -> true | _ -> false in
  Memory.load mem ~addr:(cell_addr t col row) ~size:(Schema.stride ty) ~sext

let set_str mem t ~col ~row s =
  assert (Schema.col_ty t.schema col = Schema.Str);
  Qcomp_runtime.Sso.write mem ~addr:(cell_addr t col row) s

let get_str mem t ~col ~row =
  assert (Schema.col_ty t.schema col = Schema.Str);
  Qcomp_runtime.Sso.read mem (cell_addr t col row)
