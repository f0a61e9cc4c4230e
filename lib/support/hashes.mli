(** Hash primitives used by the query runtime.

    Umbra hashes with hardware CRC-32C when available and falls back to a
    64x64->128-bit multiplication whose halves are XOR-folded
    ("long-mul-fold"). Both are implemented here in software; the virtual
    targets expose [crc32] as a native instruction so generated code matches
    these results bit-for-bit. *)

(** [crc32c acc x] is one CRC-32C (Castagnoli) step over the 8 bytes of [x],
    mirroring x86 [crc32 r64, r64] / AArch64 [crc32cx]: the accumulator is
    the low 32 bits of [acc]; the result is zero-extended. *)
val crc32c : int64 -> int64 -> int64

(** [crc32c_words crc ~lo ~hi] is {!crc32c} with the 32-bit accumulator and
    the two 32-bit halves of the data word passed as [int]s, so a caller in
    another compilation unit (the emulator's CRC instruction) neither boxes
    its arguments nor its result. *)
val crc32c_words : int -> lo:int -> hi:int -> int

(** CRC-32C over a byte at a time (used for string hashing). *)
val crc32c_byte : int64 -> int -> int64

(** {!crc32c_byte} with the 32-bit accumulator and the result as [int]s,
    unboxed across compilation units as {!crc32c_words} is. *)
val crc32c_u8 : int -> int -> int

(** [long_mul_fold x k] multiplies [x] by [k] to a 128-bit result and XORs
    the two halves. *)
val long_mul_fold : int64 -> int64 -> int64

(** Umbra-style 64-bit value hash combining two CRC lanes with a rotate,
    matching the instruction sequence in Listing 2 of the paper. *)
val hash64 : int64 -> int64

(** Combine an accumulated hash with the next value hash. *)
val combine : int64 -> int64 -> int64

(** Whether {!hash64} has an inverse. [hash64] is affine over GF(2)
    (CRC-32C is linear in its data argument), and for the paper's seed
    constants its linear part is invertible; [false] would mean the seeds
    produce a singular matrix, in which case direct addressing is simply
    disabled. *)
val invertible : bool

(** Exact inverse of {!hash64}: [unhash64 (hash64 x) = x] for every [x].
    Eight lookups in a flat table of unboxed words. The hash-table runtime
    uses this to recover integer join keys from stored hashes and detect
    dense key ranges. Raises [Invalid_argument] unless {!invertible}. *)
val unhash64 : int64 -> int64
