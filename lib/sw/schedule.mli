(** A typed execution schedule for one tiled matmul: tile sizes, loop
    order, and dataflow choice. Both execution backends consume the same
    [Schedule.t] — the cycle-accurate emitter walks it to produce the
    command stream, the analytic estimator walks it to produce a latency —
    so the two provably price the same program. *)

type dataflow = [ `WS | `OS ]

type loop_order =
  | Output_stationary_outer
      (** i0 -> j0 -> k0 with the C tile resident in the accumulator
          across the K loop (the only order the emitter produces). *)

type t = {
  tiling : Tiling.t;
  dataflow : dataflow;
  loop_order : loop_order;
  double_buffer : bool;  (** A/B tiles ping-pong between two buffers *)
}

val choose : Gemmini.Params.t -> m:int -> k:int -> n:int -> t
(** [Tiling.choose] plus the instance's preferred dataflow
    (weight-stationary when supported — the controller's reset default). *)

val of_tiling : Gemmini.Params.t -> Tiling.t -> t
(** Wrap manually-chosen tile sizes in the default dataflow/loop order. *)

val fits : Gemmini.Params.t -> t -> bool
val describe : t -> string
