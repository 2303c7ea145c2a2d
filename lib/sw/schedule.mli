(** A typed execution schedule for one tiled matmul: tile sizes and
    dataflow choice, for the i0 -> j0 -> k0 nest of
    {!Gemmini.Tiled_matmul}. Both execution backends consume the same
    [Schedule.t] — the cycle-accurate emitter walks it to produce the
    command stream, the analytic estimator walks it to produce a latency —
    so the two provably price the same program. *)

type dataflow = [ `WS | `OS ]
type t = { tiling : Gemmini.Tiled_matmul.tiling; dataflow : dataflow }

val choose : Gemmini.Params.t -> m:int -> k:int -> n:int -> t
(** {!Gemmini.Tiled_matmul.choose} plus the instance's preferred dataflow
    (weight-stationary when supported — the controller's reset default).
    Raises [Invalid_argument], naming the rows a tile needs and the rows
    the instance has, when even a 1x1x1 tile does not fit. *)

val of_tiling : Gemmini.Params.t -> Gemmini.Tiled_matmul.tiling -> t
(** Wrap manually-chosen tile sizes in the default dataflow. Raises
    [Invalid_argument], as {!choose} does, when they do not fit the
    memories. *)
