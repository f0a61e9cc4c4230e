(** Virtual target machines.

    Two targets mirror the paper's benchmark systems: [X64] (x86-64-like:
    16 GPRs, two-address ALU, variable-length encoding, widening multiply in
    fixed registers, native CRC32C) and [A64] (AArch64-like: 31 GPRs,
    three-address, fixed 4-byte encoding, separate [mul]/[umulh], native
    CRC32C under Armv8.1). Floating point values are homed in the general
    registers (a documented simplification; see DESIGN.md). *)

type arch = X64 | A64

type t = {
  arch : arch;
  name : string;
  num_regs : int;  (** total addressable registers incl. sp *)
  sp : int;
  fp : int;  (** frame pointer (conventionally reserved) *)
  scratch : int;  (** assembler scratch, never allocated *)
  scratch2 : int;
  arg_regs : int array;
  ret_regs : int array;  (** two registers for 128-bit / pair returns *)
  callee_saved : int array;
  allocatable : int array;  (** order used by simple allocators *)
  two_address : bool;
  has_crc32 : bool;
  pointer_align : int;
}

(* X64 register numbering follows x86-64:
   0=rax 1=rcx 2=rdx 3=rbx 4=rsp 5=rbp 6=rsi 7=rdi 8..15=r8..r15.
   r11 is the assembler scratch, r10 the secondary. *)
let x64 =
  {
    arch = X64;
    name = "x86-64";
    num_regs = 16;
    sp = 4;
    fp = 5;
    scratch = 11;
    scratch2 = 10;
    arg_regs = [| 7; 6; 2; 1; 8; 9 |];
    ret_regs = [| 0; 2 |];
    callee_saved = [| 3; 5; 12; 13; 14; 15 |];
    allocatable = [| 0; 1; 2; 6; 7; 8; 9; 3; 12; 13; 14; 15 |];
    two_address = true;
    has_crc32 = true;
    pointer_align = 8;
  }

(* A64: x0..x28 general, x29 fp, x30 lr, 31 = sp. x16/x17 are the usual
   intra-procedure-call scratch registers. *)
let a64 =
  {
    arch = A64;
    name = "aarch64";
    num_regs = 32;
    sp = 31;
    fp = 29;
    scratch = 16;
    scratch2 = 17;
    arg_regs = [| 0; 1; 2; 3; 4; 5; 6; 7 |];
    ret_regs = [| 0; 1 |];
    callee_saved = [| 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 |];
    allocatable =
      [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 |];
    two_address = false;
    has_crc32 = true;
    pointer_align = 8;
  }

let lr = 30 (* A64 link register *)

let is_callee_saved t r = Array.exists (fun x -> x = r) t.callee_saved

let reg_name t r =
  match t.arch with
  | X64 ->
      let names =
        [| "rax"; "rcx"; "rdx"; "rbx"; "rsp"; "rbp"; "rsi"; "rdi";
           "r8"; "r9"; "r10"; "r11"; "r12"; "r13"; "r14"; "r15" |]
      in
      if r >= 0 && r < 16 then names.(r) else Printf.sprintf "r?%d" r
  | A64 ->
      if r = 31 then "sp"
      else if r = 30 then "lr"
      else if r = 29 then "fp"
      else Printf.sprintf "x%d" r
