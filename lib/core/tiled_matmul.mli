(** The tiled weight-stationary matmul schedule, in one place for both of
    its issuers: the software library's kernel ([Gem_sw.Kernels]) and the
    [LOOP_WS] hardware loop sequencer ({!Controller}, after Gemmini's
    LoopMatmul). Both pick tile sizes with {!choose} and issue the
    i0 -> j0 -> k0 nest through {!step}, so they run the same matmul.

    Tile sizes follow the paper's "Data Staging and Mapping" heuristic
    (Section III-B): "based on the dimensions of a layer's inputs, and the
    hardware parameters of the accelerator instantiation, Gemmini uses
    heuristics to maximize the amount of data moved into the scratchpad
    per iteration."

    A matmul [M x K x N] is tiled into blocks of [ti x tk x tj]
    DIM-square sub-blocks. The A and B tiles must fit (double-buffered)
    in the scratchpad; the C tile must fit in the accumulator. Larger
    tiles mean less re-streaming of A and B from DRAM/L2 — the mechanism
    behind the Fig. 9 BigSP speedups. *)

(** {1 Tile sizes} *)

type tiling = {
  ti : int;  (** M-dimension tile, in DIM-blocks *)
  tk : int;  (** K-dimension tile, in DIM-blocks *)
  tj : int;  (** N-dimension tile, in DIM-blocks *)
}

val choose : Params.t -> m:int -> k:int -> n:int -> tiling
(** The automatic heuristic: grow ti/tj/tk round-robin while the tiles
    fit, never exceeding the problem's own extent. An instance too small
    for even a 1x1x1 tile (4 DIM scratchpad rows and DIM accumulator
    rows) gets the 1x1x1 tile, which does not {!fits}. *)

val manual : ti:int -> tk:int -> tj:int -> tiling
(** "If the programmer wishes, the low-level API also allows them to
    manually set tile-sizes for each kernel." Validated at kernel-emission
    time against the instance's memories. *)

val fits : Params.t -> tiling -> bool
(** Double-buffered A+B fit the scratchpad and C fits the accumulator. *)

val require_fit : Params.t -> tiling -> unit
(** Raises [Invalid_argument], naming the rows the tile needs and the
    rows the instance has, unless the tile {!fits}. *)

val blocks : Params.t -> m:int -> k:int -> n:int -> int * int * int
(** Problem extents in DIM-blocks (ceiling division). *)

val dram_traffic_bytes : Params.t -> tiling -> m:int -> k:int -> n:int -> int
(** Predicted bytes moved for the tiled schedule: A is re-read once per
    J-tile sweep, B once per I-tile sweep, C written once (int8 out). The
    kernel emitter's actual traffic matches this model (asserted in
    tests). *)

(** {1 Compute runs} *)

(** A compute run: one tile step's weight-stationary preload/compute nest
    as plain ints, so a step hands the controller the whole nest in one
    op instead of two commands per block. Blocks are indexed globally:
    block [g] along M covers rows [g*dim, min (m, (g+1)*dim)), and
    likewise along K and N. The nest is kk -> jj -> ii over
    [vk x vj x vi] blocks starting at blocks [(i0, j0, k0)]; per block it
    issues a Preload (B from scratchpad row
    [b_base + (kk*tj + jj)*dim] on the first ii of each B block, garbage
    after it; C into accumulator row [(ii*tj + jj)*dim], accumulating when
    [accumulate] or [kk > 0]) and a Compute (A from scratchpad row
    [a_base + (ii*tk + kk)*dim]; preloaded on the first ii, accumulated
    after it). *)
type compute_run = {
  cr_m : int;
  cr_k : int;
  cr_n : int;
  cr_i0 : int;
  cr_j0 : int;
  cr_k0 : int;
  cr_vi : int;
  cr_vj : int;
  cr_vk : int;
  cr_tk : int;
  cr_tj : int;
  cr_a_base : int;
  cr_b_base : int;
  cr_accumulate : bool;
  cr_dim : int;
}

val run_rows : compute_run -> int -> int
val run_kcols : compute_run -> int -> int
val run_ncols : compute_run -> int -> int
(** Rows of M-block [gi], columns of K-block [gk], columns of N-block
    [gj]. *)

val run_a_row : compute_run -> ii:int -> kk:int -> int
val run_b_row : compute_run -> kk:int -> jj:int -> int
val run_c_row : compute_run -> ii:int -> jj:int -> int
(** First scratchpad (A, B) or accumulator (C) row of a block of the run. *)

val run_commands : compute_run -> (Isa.t -> unit) -> unit
(** [run_commands r f] calls [f] on each command of the run, in program
    order: the command stream the run stands for. *)

val run_fits : Params.t -> compute_run -> bool
(** The run's O(1) bounding-box check: block sizes in [1, DIM] and the
    last A/B row within the scratchpad, the last C row within the
    accumulator. When it holds, {!Isa.validate} accepts every command of
    {!run_commands}. *)

(** {1 The step generator} *)

val max_block_len : int
(** Hardware limit of the mover: one mvin spans at most MAX_BLOCK_LEN (4)
    adjacent DIM-blocks of columns. *)

type bias =
  | No_bias
  | Broadcast of int
      (** VA of one int32 per output column, loaded into every row with a
          stride-0 mvin *)
  | Column of int  (** VA of one int32 per output row *)

type t
(** One matmul's schedule, ready to issue step by step. *)

val make :
  Params.t ->
  tiling:tiling ->
  dataflow:[ `WS | `OS ] ->
  bias:bias ->
  act:Peripheral.activation ->
  scale:float ->
  a_stride:int ->
  b_stride:int ->
  c_stride:int ->
  a_condense:float ->
  a:int ->
  b:int ->
  out:int ->
  m:int ->
  k:int ->
  n:int ->
  t
(** C = act(scale * (A.B + bias)) for [A] at VA [a] ([m x k]), [B] at
    [b] ([k x n]) and [C] at [out], with DRAM row strides in bytes (taken
    as given, 0 included). [a_condense] below 1 scales every A fetch's
    offset and column count (never below one column), which models the
    on-the-fly im2col unit reading the raw input instead of the expanded
    patch matrix; 1 fetches A as addressed. The tile is taken as given:
    one that does not {!fits} issues commands outside the memories. *)

val steps : t -> int
(** Number of [(i0, j0, k0)] tile steps, at least 1 for a non-empty
    problem. *)

val step :
  t -> int -> cmd:('a -> Isa.t -> unit) -> run:('a -> compute_run -> unit) -> 'a -> unit
(** [step t s ~cmd ~run x] issues step [s] of the i0 -> j0 -> k0 nest, in
    order: the five configuration commands (step 0 only); the bias mvins
    into the C tile (when [k0 = 0]); the A and B tile mvins, split at
    MAX_BLOCK_LEN (4) blocks; the step's {!compute_run}; and the C tile's
    mvouts (on the last [k0]). The A/B tiles ping-pong between two
    scratchpad buffers from one step to the next. Commands go to
    [cmd x], the run to [run x]: top-level callbacks and an argument
    allocate no closure per step. *)
