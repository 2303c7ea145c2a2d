(** Tuned kernels — the low-level layer of Gemmini's multi-level
    programming stack (the [tiled_matmul], [tiled_conv], resadd and
    pooling functions of the C library), emitting RoCC command streams.

    Each kernel takes virtual addresses (translation happens in the DMA),
    picks tile sizes through {!Tiling} (or accepts manual ones), and emits
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
(** Every step, expanded in order: the list form. *)

val matmul_steps :
  Gemmini.Params.t ->
  ?tiling:Tiling.t ->
  ?schedule:Schedule.t ->
  ?bias:int ->
  ?bias_column:int ->
  ?act:Gemmini.Peripheral.activation ->
  ?scale:float ->
  ?a_row_stride:int ->
  ?b_row_stride:int ->
  ?c_row_stride:int ->
  ?a_condense:float ->
  a:int ->
  b:int ->
  out:int ->
  m:int ->
  k:int ->
  n:int ->
  unit ->
  steps
(** C = act(scale * (A.B + bias)), int8 in/out, int32 accumulate. One
    step is one [(i0, j0, k0)] tile: step 0 also configures the units, a
    [k0 = 0] step stages the bias into the C tile, and the last [k0] step
    drains it. [schedule] fixes tile sizes, loop order and dataflow (it
    subsumes and wins over [tiling], which wraps legacy manual tile
    sizes in the default schedule); when neither is given the kernel runs
    {!Schedule.choose}.
    [bias] is the VA of an int32 per-output-column vector, broadcast to
    every row with a stride-0 mvin. [bias_column] instead biases per
    output {e row} (each accumulator row loads its own int32 word; used by
    the transposed batch-1 GEMM lowering; requires [n <= DIM]). Strides are DRAM row strides in bytes
    (defaults: dense [k]/[n]/[n]). [a_condense] (timing mode only) scales
    the A-side fetch footprint to model the on-the-fly im2col unit
    reading the raw input instead of the expanded patch matrix. Raises
    [Invalid_argument] on an empty problem or a tiling that does not
    fit, before any step runs. *)

val matmul_ops :
  Gemmini.Params.t ->
  ?tiling:Tiling.t ->
  ?schedule:Schedule.t ->
  ?bias:int ->
  ?bias_column:int ->
  ?act:Gemmini.Peripheral.activation ->
  ?scale:float ->
  ?a_row_stride:int ->
  ?b_row_stride:int ->
  ?c_row_stride:int ->
  ?a_condense:float ->
  a:int ->
  b:int ->
  out:int ->
  m:int ->
  k:int ->
  n:int ->
  unit ->
  op list
(** {!matmul_steps}, expanded into a list. *)

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
(** The CISC path: the same matmul as {!matmul_ops}, issued as three
    configuration commands plus one [LOOP_WS] — the hardware sequencer
    expands the tile loop, so the host pays four dispatches instead of
    thousands. Dense strides. *)

val conv_steps :
  Gemmini.Params.t ->
  cpu:Gem_cpu.Cpu_model.kind ->
  im2col:Lower.im2col_choice ->
  ?bias:int ->
  ?scale:float ->
  input:int ->
  weights:int ->
  out:int ->
  spec:Gem_dnn.Layer.conv_spec ->
  patch_scratch:int ->
  unit ->
  steps
(** Convolution as im2col + tiled matmul, stepped like {!matmul_steps}
    (the host im2col, if any, ahead of step 0). [patch_scratch] is the VA
    of the patch matrix: the reusable buffer the host im2col fills, or
    the one pre-expanded in DRAM.
    Depthwise convolutions lower to per-channel skinny matmuls (poor
    array utilization — the MobileNetV2 effect), each planned when its
    first step is reached. *)

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
  Gemmini.Params.t ->
  cpu:Gem_cpu.Cpu_model.kind ->
  input:int ->
  out:int ->
  spec:Gem_dnn.Layer.pool_spec ->
  steps
(** With the pooling unit: data streams through the accelerator's store
    path, one pooled row group (and the loads it needs) per step.
    Without: one host-CPU step. *)

val host_elementwise : cpu:Gem_cpu.Cpu_model.kind -> elems:int -> tag:string -> op
(** Softmax / layernorm / GELU / global-average-pool host work. *)

val fence : op
val flush_tlb : op
