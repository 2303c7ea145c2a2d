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

(** The [*_rev] kernels emit onto a {e reversed} accumulator: each
    returns the kernel's ops in reverse order prepended to the list it is
    given. The runtime threads one accumulator through a whole layer and
    reverses it once, so lowering copies no per-kernel lists. The
    matmul also comes as [matmul_ops], which returns its command list in
    order. *)

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
(** C = act(scale * (A.B + bias)), int8 in/out, int32 accumulate.
    [schedule] fixes tile sizes, loop order and dataflow (it subsumes and
    wins over [tiling], which wraps legacy manual tile sizes in the
    default schedule); when neither is given the kernel runs
    {!Schedule.choose}.
    [bias] is the VA of an int32 per-output-column vector, broadcast to
    every row with a stride-0 mvin. [bias_column] instead biases per
    output {e row} (each accumulator row loads its own int32 word; used by
    the transposed batch-1 GEMM lowering; requires [n <= DIM]). Strides are DRAM row strides in bytes
    (defaults: dense [k]/[n]/[n]). [a_condense] (timing mode only) scales
    the A-side fetch footprint to model the on-the-fly im2col unit
    reading the raw input instead of the expanded patch matrix. *)

val matmul_rev :
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
  op list ->
  op list

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

type conv_im2col =
  | Im2col_on_cpu  (** host materializes the patch matrix (Fig. 7 left) *)
  | Im2col_on_accel  (** the optional hardware block expands on the fly *)
  | Im2col_preexpanded of int
      (** patch matrix already at this VA (functional-mode path) *)

val conv_rev :
  Gemmini.Params.t ->
  cpu:Gem_cpu.Cpu_model.kind ->
  im2col:conv_im2col ->
  ?bias:int ->
  ?scale:float ->
  input:int ->
  weights:int ->
  out:int ->
  spec:Gem_dnn.Layer.conv_spec ->
  patch_scratch:int ->
  op list ->
  op list
(** Convolution as im2col + tiled matmul. [patch_scratch] is the VA of
    the reusable patch-matrix buffer (used by the CPU path). Depthwise
    convolutions lower to per-channel skinny matmuls (poor array
    utilization — the MobileNetV2 effect). *)

val resadd_rev :
  Gemmini.Params.t ->
  ?relu:bool ->
  x:int ->
  y:int ->
  out:int ->
  elems:int ->
  op list ->
  op list
(** Element-wise int8 addition through the accumulator: stream X in,
    accumulate Y onto it, store back. No weight reuse at all — the
    memory-bound layer class of Fig. 9. *)

val maxpool_rev :
  Gemmini.Params.t ->
  cpu:Gem_cpu.Cpu_model.kind ->
  input:int ->
  out:int ->
  spec:Gem_dnn.Layer.pool_spec ->
  op list ->
  op list
(** With the pooling unit: data streams through the accelerator's store
    path. Without: host-CPU loop. *)

val host_elementwise_ops :
  cpu:Gem_cpu.Cpu_model.kind -> elems:int -> tag:string -> op list
(** Softmax / layernorm / GELU / global-average-pool host work. *)

val fence : op
val flush_tlb : op
