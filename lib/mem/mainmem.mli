(** Sparse functional main memory (physical address space).

    Backs the functional-mode DMA: pages (4 KiB) are allocated lazily, so a
    tiny test footprint costs a tiny amount of host memory even though the
    simulated physical address space is large. Reads of untouched memory
    return zero, like zero-filled pages from an OS. *)

type t

val create : unit -> t

val read_byte : t -> addr:int -> int
(** Unsigned byte value 0..255. *)

val write_byte : t -> addr:int -> int -> unit
(** Stores the low 8 bits of the value. *)

val read_i8 : t -> addr:int -> int
(** Sign-extended int8. *)

val write_i8 : t -> addr:int -> int -> unit
(** Saturation is the caller's business; stores the low byte. *)

val read_i32 : t -> addr:int -> int
(** Little-endian signed 32-bit. *)

val write_i32 : t -> addr:int -> int -> unit

val read_i8_array : t -> addr:int -> n:int -> int array
val write_i8_array : t -> addr:int -> int array -> unit

val touched_pages : t -> int

val codec : t Gem_util.Snap.t
(** Every touched page as [[key, hex-bytes]], sorted by page key for
    deterministic output. Restoring replaces the full contents. *)
