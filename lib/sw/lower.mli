(** Backend-agnostic lowering decisions.

    Every per-layer decision both execution backends must agree on is
    made here, once: the execution mode, per-layer software-fallback
    costs, im2col placement, and the abstract kernel shapes (matmul
    dimensions, {!Schedule.t}, operand strides). {!Runtime} turns a plan
    into the cycle-accurate command stream, adding only tensor addresses,
    span and recovery markers, fences and functional data staging;
    {!Backend_analytic} prices the same plan in closed form. The
    backend-seam test diffs {!Backend_analytic.matmul_command_counts}
    against what {!Kernels.matmul_steps} emits for each planned shape. *)

type mode =
  | Accel of { im2col_on_accel : bool }
  | Cpu_only  (** the Fig. 7 baseline: every layer in software *)

val mode_desc : mode -> string

val cpu_only_cycles :
  Gem_cpu.Cpu_model.kind -> Gem_dnn.Layer.model -> Gem_sim.Time.cycles
(** Whole-model software baseline (the Fig. 7 denominators). *)

(** Abstract shape of one tiled matmul invocation. *)
type matmul_shape = {
  ms_m : int;
  ms_k : int;
  ms_n : int;
  ms_schedule : Schedule.t;
  ms_bias : [ `Broadcast | `Column | `None ];
      (** int32 bias per output column, broadcast to every row; per
          output row (the transposed batch-1 GEMM, [ms_n <= DIM]); or
          none *)
  ms_a_stride : int;  (** A row stride in DRAM, bytes *)
  ms_b_stride : int;
  ms_c_stride : int;
  ms_a_condense : float;  (** on-the-fly im2col fetch-footprint ratio *)
}

val matmul_shape :
  Gemmini.Params.t ->
  ?schedule:Schedule.t ->
  ?bias:[ `Broadcast | `Column | `None ] ->
  ?c_stride:int ->
  ?a_condense:float ->
  m:int ->
  k:int ->
  n:int ->
  unit ->
  matmul_shape
(** A shape with dense A and B rows ([k] and [n] bytes): [bias] defaults
    to [`None], [c_stride] to [n], [a_condense] to 1, and [schedule] to
    {!Schedule.choose}, which raises [Invalid_argument] on an instance
    too small for one tile. *)

type host_work = { hw_cycles : int; hw_tag : string }

type kernel =
  | K_host of host_work
  | K_matmul of {
      prep : host_work option;  (** host im2col pass ahead of the matmuls *)
      a : [ `Input | `Patches | `Weights ];
          (** the tensor the A operand streams: the layer input (a plain
              GEMM, or a conv the im2col block expands on the fly), the
              patch matrix, or the weights (the transposed batch-1 GEMM,
              whose input is then B) *)
      shape : matmul_shape;
      count : int;
          (** instances of [shape]: batched GEMMs, or one per depthwise
              channel *)
    }
  | K_resadd of { elems : int }
  | K_maxpool of { spec : Gem_dnn.Layer.pool_spec }

type layer_plan = {
  lp_name : string;
  lp_class : Gem_dnn.Layer.klass;
  lp_macs : int;
  lp_span : string option;
      (** kernel span name; [None] for un-spanned CPU-only layers *)
  lp_kernel : kernel;
  lp_cpu_cycles : int;
      (** software cost of the whole layer (Degrade fallback, baseline) *)
}

val plan :
  ?functional:bool ->
  Gemmini.Params.t ->
  cpu:Gem_cpu.Cpu_model.kind ->
  mode:mode ->
  Gem_dnn.Layer.model ->
  layer_plan list
(** One plan entry per model layer, in execution order. [functional]
    (default [false]) plans a functional run, whose conv layers read a
    patch matrix pre-expanded in DRAM whatever the mode asks. Raises
    [Invalid_argument] when a matmul layer meets an instance too small
    for one tile ({!Schedule.choose}). *)
