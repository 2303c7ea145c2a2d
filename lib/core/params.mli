(** Generator parameters — the design space of the Gemmini architectural
    template (paper Section III-A).

    A parameter record describes one accelerator instance: the two-level
    spatial array (a [mesh_rows] x [mesh_cols] mesh of pipelined tiles,
    each tile a combinational [tile_rows] x [tile_cols] grid of PEs), the
    datatypes, the dataflow(s), the private memories, the optional
    peripheral compute blocks, and the DMA/system interface. *)

type t = {
  (* Spatial array: mesh of tiles of PEs. *)
  mesh_rows : int;  (** tiles vertically; pipeline registers between tiles *)
  mesh_cols : int;  (** tiles horizontally *)
  tile_rows : int;  (** PEs per tile, vertically; combinational *)
  tile_cols : int;  (** PEs per tile, horizontally *)
  dataflow : Dataflow.t;
  input_type : Dtype.t;
  acc_type : Dtype.t;
  (* Private memories. *)
  sp_capacity_bytes : int;  (** scratchpad capacity *)
  sp_banks : int;
  acc_capacity_bytes : int; (** accumulator capacity *)
  acc_banks : int;
  (* Optional peripheral blocks (paper: pooling, ReLU/ReLU6, im2col,
     transposition, matrix-scalar). *)
  has_im2col : bool;
  has_pooling : bool;
  has_transposer : bool;
  has_activations : bool;
  (* DMA / system interface. *)
  dma_bus_bytes : int;     (** DMA beat width, bytes per cycle *)
  max_in_flight : int;     (** reorder-buffer depth for issued commands *)
  freq_ghz : float;        (** nominal clock for FPS conversions *)
}

(* Derived quantities. *)

val dim_rows : t -> int
(** PE rows of the full array = mesh_rows * tile_rows. *)

val dim_cols : t -> int

val dim : t -> int
(** For square arrays (required by the kernel library): PE rows. *)

val pes : t -> int

val sp_row_bytes : t -> int
(** One scratchpad row holds [dim_cols] input-type elements. *)

val sp_rows : t -> int
val sp_rows_per_bank : t -> int
val acc_row_bytes : t -> int
val acc_rows : t -> int
val acc_rows_per_bank : t -> int

val validate : t -> (unit, string list) result
(** All structural constraints: positive dims, square array, capacities
    divisible by banks and rows, power-of-two banks, valid type pairing,
    positive bus width. *)

val validate_exn : t -> t
(** Returns the record unchanged or raises [Invalid_argument] listing every
    violation. *)

(* Presets. *)

val default : t
(** The paper's evaluation configuration (Fig. 6): 16x16 fully-pipelined
    int8 array (1x1 tiles), 256 KB scratchpad, 64 KB accumulator, WS
    dataflow, all peripheral blocks, 16-byte DMA, 1 GHz. *)

val tpu_like : pes:int -> t
(** Fully-pipelined square array: NxN mesh of 1x1 tiles (Fig. 3 left). *)

val nvdla_like : pes:int -> t
(** Fully-combinational array: 1x1 mesh of one NxN tile, i.e. parallel
    MAC reduction trees (Fig. 3 right). *)

val edge : t
(** Small low-power instance: 8x8, 64 KB scratchpad, in-order host. *)

val cloud : t
(** Large instance: 32x32, 512 KB scratchpad, 128 KB accumulator. *)

val with_im2col : bool -> t -> t

val describe : t -> string
(** One-line human-readable summary. *)
