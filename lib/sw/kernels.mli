(** Tuned kernels — the low-level layer of Gemmini's multi-level
    programming stack (the [tiled_matmul], resadd and pooling functions
    of the C library), emitting RoCC command streams. A convolution is
    im2col plus a tiled matmul, planned by {!Lower}.

    Each kernel takes virtual addresses (translation happens in the DMA)
    and the shape {!Lower} planned (tile sizes from
    {!Gemmini.Tiled_matmul.choose}), and emits
    the same double-buffered preload/compute structure as the C library:
    B-blocks are kept stationary across the I dimension
    ([Compute_accumulated] reuses resident weights), C tiles live in the
    accumulator across the K loop, and activation/scaling are applied on
    the way out by the store unit. *)

type op = Gem_soc.Soc.op

(** A kernel's outer loop, expanded on demand: each element is one step,
    which pushes its commands through the [emit] it is given, in program
    order. A consumer that expands one step at a time holds at most one
    tile step's commands, never a whole layer's — the software analogue
    of the LOOP_WS unit, which unrolls the same nest in hardware from a
    compact descriptor. *)
type steps = Gem_soc.Soc.steps

val single : op -> steps
(** One step emitting [op]. *)

val ops : steps -> op list
(** Every step, expanded in order: the list form, with each
    {!Gem_soc.Soc.Compute_run} as its commands. *)

val matmul_steps :
  Gemmini.Params.t ->
  ?bias:int ->
  ?act:Gemmini.Peripheral.activation ->
  ?scale:float ->
  a:int ->
  b:int ->
  out:int ->
  Lower.matmul_shape ->
  steps
(** C = act(scale * (A.B + bias)), int8 in/out, int32 accumulate, for the
    shape {!Lower} planned: its dimensions, schedule (tile sizes, loop
    order, dataflow), DRAM row strides in bytes, and [ms_a_condense]
    (timing mode only), which scales the A-side fetch footprint to model
    the on-the-fly im2col unit reading the raw input instead of the
    expanded patch matrix. The schedule is taken as given. One step is one
    [(i0, j0, k0)] tile of {!Gemmini.Tiled_matmul.step}, the generator the
    LOOP_WS sequencer also runs: step 0 also configures the units, a
    [k0 = 0] step stages the bias into the C tile, the step's
    preload/compute nest is one {!Gem_soc.Soc.Compute_run}, and the last
    [k0] step drains it. [bias] is the VA of the int32 bias vector, laid out as the
    shape's [ms_bias] says: per output column, broadcast to every row
    with a stride-0 mvin, or per output row (each accumulator row loads
    its own word). Raises [Invalid_argument] on an empty problem, on a
    [bias] that is missing for a biased shape or given for an unbiased
    one, or on invalid parameters, before any step runs. *)

val matmul_ops :
  Gemmini.Params.t ->
  ?tiling:Gemmini.Tiled_matmul.tiling ->
  ?bias:int ->
  ?act:Gemmini.Peripheral.activation ->
  ?scale:float ->
  a:int ->
  b:int ->
  out:int ->
  m:int ->
  k:int ->
  n:int ->
  unit ->
  op list
(** A dense matmul (the C library's [tiled_matmul_auto]), expanded into a
    list: {!matmul_steps} on {!Lower.matmul_shape}, with [bias] broadcast
    per output column and [tiling] (manual tile sizes in the default
    schedule) instead of {!Schedule.choose}. Raises [Invalid_argument],
    naming the rows the tile needs and the rows the instance has, if
    [tiling] (or, without it, a 1x1x1 tile) does not fit the memories. *)

val matmul_loop_ws_ops :
  Gemmini.Params.t ->
  ?bias:int ->
  ?act:Gemmini.Peripheral.activation ->
  ?scale:float ->
  a:int ->
  b:int ->
  out:int ->
  m:int ->
  k:int ->
  n:int ->
  unit ->
  op list
(** The CISC path: the same matmul as {!matmul_ops} — the sequencer
    runs the same tile-size rule and step generator
    ({!Gemmini.Tiled_matmul}), so on an instance with weight-stationary
    dataflow it issues the same commands — as three
    configuration commands plus one [LOOP_WS]: the hardware expands the
    tile loop, so the host pays four dispatches instead of thousands.
    Dense strides. On an instance too small for one tile it traps at its
    first out-of-range sub-command. *)

val resadd_steps :
  Gemmini.Params.t ->
  ?relu:bool ->
  x:int ->
  y:int ->
  out:int ->
  elems:int ->
  unit ->
  steps
(** Element-wise int8 addition through the accumulator: stream X in,
    accumulate Y onto it, store back, one accumulator row group per step.
    No weight reuse at all — the memory-bound layer class of Fig. 9. *)

val maxpool_steps :
  Gemmini.Params.t -> input:int -> out:int -> spec:Gem_dnn.Layer.pool_spec -> steps
(** Max-pooling through the pooling unit on the store path: the input
    streams through the scratchpad, one pooled row group (and the loads
    it needs) per step. Raises [Invalid_argument] on an instance without
    a pooling unit ({!Lower} plans a host fallback there). *)

val fence : op
val flush_tlb : op
