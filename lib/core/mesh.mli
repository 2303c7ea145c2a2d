(** The two-level spatial array: a mesh of combinational tiles joined by
    pipeline registers (paper Fig. 2), simulated cycle-by-cycle.

    The same structure expresses the whole Fig. 3 design space: a
    [16x16 mesh of 1x1 tiles] is a TPU-like fully-pipelined systolic array,
    a [1x1 mesh of one 16x16 tile] is an NVDLA-like array of combinational
    MAC reduction trees, and intermediate factorizations trade pipeline
    depth against clock period.

    The functional model is exact: [run_matmul] produces bit-identical
    results to the reference matrix product (with saturation) and returns
    the schedule's cycle count, which the closed-form {!block_cycles} used
    by the timing simulator must match (enforced by property tests). *)

type t

val create :
  ?engine:Gem_sim.Engine.t -> ?name:string -> ?core:int -> Params.t -> t
(** [engine]/[name]/[core] attribute faults: malformed operands
    (dimension mismatches, unsupported dataflow) raise a structured
    {!Gem_sim.Fault.Trap} tagged with [name] — counted and streamed
    through [engine] when one is attached. Oversized weight preloads and
    non-positive cost-model blocks remain [Invalid_argument]: those are
    caller bugs, not architectural events. *)

val params : t -> Params.t
val dim_rows : t -> int
val dim_cols : t -> int

val preload_weights : t -> Gem_util.Matrix.t -> int
(** Loads a weight matrix (dimensions at most [dim_rows x dim_cols],
    zero-padded) into the PEs' stationary registers and returns the number
    of cycles the shift-in takes ([dim_rows]). *)

val clear : t -> unit
(** Clears stationary state and pipeline registers. *)

type result = { out : Gem_util.Matrix.t; cycles : int }

val run_matmul :
  t ->
  dataflow:[ `WS | `OS ] ->
  a:Gem_util.Matrix.t ->
  b:Gem_util.Matrix.t ->
  ?d:Gem_util.Matrix.t ->
  unit ->
  result
(** Computes [A*B + D] on the array using the systolic schedule of the
    chosen dataflow. [A] is [I x K], [B] is [K x J], [D] (optional bias)
    is [I x J]; requires [K <= dim_rows] (WS) or [I <= dim_rows] (OS) and
    [J <= dim_cols]. [cycles] includes weight preload (WS) or result
    drain (OS). Dimension violations and an unsupported dataflow trap
    ({!Gem_sim.Fault.Trap}, cause [Illegal_inst]). *)

val block_cycles :
  Params.t ->
  dataflow:[ `WS | `OS ] ->
  rows:int ->
  k:int ->
  cols:int ->
  preload:bool ->
  int
(** Closed-form cycle count for one [rows x k x cols] block matmul on the
    array described by [Params]; the timing simulator's mesh cost. With
    [preload:false] (WS only) the weights are assumed resident and only
    the streaming cost is charged. *)

val pipelined_block_cycles :
  Params.t ->
  dataflow:[ `WS | `OS ] ->
  rows:int ->
  k:int ->
  cols:int ->
  preload:bool ->
  int
(** Steady-state issue occupancy of one block in a stream of back-to-back
    blocks. Unlike {!block_cycles} (an isolated block, paying the full
    skew fill/drain), consecutive blocks overlap in the array: WS weight
    preloads are double-buffered behind the previous block's rows, so a
    block occupies the array for [max rows dim] (preloaded) or [rows]
    (weights resident) cycles plus a small inter-block bubble. This is the
    cost the controller's execute pipeline charges.

    Precondition: [Params] has passed {!Params.validate} (as
    {!Controller.create} and {!create} ensure). This function runs on
    every compute command and does not re-validate; an invalid record
    yields a meaningless count, not an error. *)

val block_attrs :
  dataflow:[ `WS | `OS ] ->
  rows:int ->
  k:int ->
  cols:int ->
  preload:bool ->
  (string * string) list
(** Span attributes describing one block execution (dataflow, block shape,
    whether weights were re-preloaded); attached to compute-command spans
    so a trace shows what each array occupation computed. Only call when
    the engine is live — this allocates. *)

val peak_macs_per_cycle : Params.t -> int
val utilization : Params.t -> dataflow:[ `WS | `OS ] -> rows:int -> k:int -> cols:int -> float
(** Fraction of peak MACs achieved by one block execution. *)
