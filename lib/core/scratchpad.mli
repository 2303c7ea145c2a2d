(** The accelerator's private memories behind the {!Local_addr} space:
    a banked input-type scratchpad and a banked accumulator.

    Rows are [dim] elements wide. The accumulator stores accumulator-type
    values and supports the accumulate-on-write path used by tiled matmuls
    that sum partial products across K-tiles. *)

type t

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  ?core:int ->
  functional:bool ->
  Params.t ->
  t
(** When [engine] is given, the scratchpad and accumulator banks register
    metrics probes ([name], [name ^ "-acc"]) in its registry. Garbage
    dereferences, misplaced accumulate flags and out-of-bounds rows raise
    {!Gem_sim.Fault.Trap} attributed to [core] (default -1). Only a
    [~functional] scratchpad holds data: on a timing-only one every data
    access raises [Invalid_argument]. *)

val params : t -> Params.t

val read_row : t -> Local_addr.t -> offset:int -> int array
(** [read_row t la ~offset] reads row [Local_addr.row la + offset] from
    whichever memory [la] targets. Returns raw stored elements. *)

val write_row : t -> Local_addr.t -> offset:int -> int array -> unit
(** Writes a row; when [la] has the accumulate flag set (accumulator
    targets only) the row is summed into the existing contents with
    int32 saturation. *)

val read_block : t -> Local_addr.t -> rows:int -> cols:int -> Gem_util.Matrix.t
val write_block : t -> Local_addr.t -> Gem_util.Matrix.t -> unit

val sp_rows : t -> int
val acc_rows : t -> int

val reset_stats : t -> unit

val codec : t Gem_util.Snap.t
(** Both SRAMs' counters, and their contents when the scratchpad is
    functional. *)
