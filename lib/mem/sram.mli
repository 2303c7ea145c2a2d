(** Banked SRAM model — the substrate for Gemmini's scratchpad and
    accumulator memories.

    The memory is organized as [banks] banks of [rows_per_bank] rows, each
    row holding [elems_per_row] integer elements (int8 for the scratchpad,
    int32 for the accumulator). Rows are addressed with a flat row index
    whose high bits select the bank, exactly like Gemmini's local scratchpad
    addresses. The functional model stores real values; access counters feed
    the statistics surface. *)

type t

val create :
  banks:int -> rows_per_bank:int -> elems_per_row:int -> data:bool -> t
(** [~data:false] makes a timing-only SRAM that holds no values: only
    functional runs read them, and every data access on it raises
    [Invalid_argument]. *)

val banks : t -> int
val rows_per_bank : t -> int
val elems_per_row : t -> int
val total_rows : t -> int
val bank_of_row : t -> int -> int

val read_row : t -> row:int -> int array
(** Copy of the row's elements. Raises [Invalid_argument] on bad row. *)

val read_elem : t -> row:int -> col:int -> int

val write_row : t -> row:int -> int array -> unit
(** Writes a full row. The source array may be shorter than the row, in
    which case remaining elements are zero-filled (hardware pads mvins). *)

val write_elem : t -> row:int -> col:int -> int -> unit

val accumulate_row : t -> row:int -> int array -> unit
(** Element-wise saturating int32 addition into the row — the accumulator
    write path when the accumulate bit is set. *)

val reads : t -> int
val writes : t -> int
val reset_stats : t -> unit

val codec : t Gem_util.Snap.t
(** Geometry (checked on restore), access counters and, when the SRAM
    holds data, its full contents. *)
