(** Gemmini local (scratchpad/accumulator) address encoding.

    Local addresses are 32-bit values whose top bits carry routing flags,
    exactly as in the Gemmini ISA:

    - bit 31: targets the accumulator (otherwise the scratchpad);
    - bit 30: accumulate into the destination instead of overwriting
      (accumulator targets only);
    - bit 29: read/write full accumulator width (otherwise values are
      scaled down to the input type on the way out);
    - bits 28..0: row index.

    The special value with all bits set is "garbage": compute instructions
    use it to mean "no operand". *)

type t [@@immediate]
(** An int: records holding one store it without a write barrier. *)

val scratchpad : row:int -> t
val accumulator : ?accumulate:bool -> ?full_width:bool -> row:int -> unit -> t
val garbage : t

val is_garbage : t -> bool
val is_accumulator : t -> bool
val accumulate_flag : t -> bool
val full_width_flag : t -> bool

val row : t -> int
(** Row index (meaningless for {!garbage}). *)

val add_rows : t -> int -> t
(** Advance the row index, keeping flags. *)

val to_bits : t -> int
(** The raw 32-bit encoding. *)

val of_bits : int -> t
(** Inverse of {!to_bits}; masks to 32 bits. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
