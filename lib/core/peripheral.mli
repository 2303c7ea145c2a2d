(** Configurable peripheral circuitry around the spatial array.

    The paper (Section III-A) lists the "other commonly-used DNN kernels"
    Gemmini supports in hardware next to the array: pooling, non-linear
    activations (ReLU / ReLU6), matrix-scalar multiplications, an optional
    on-the-fly im2col block, and a transposer. These are the functional
    models; whether each block exists in a given instance is a
    {!Params.t} choice, and the area they add is accounted by
    {!Synthesis}. *)

type activation = No_activation | Relu | Relu6 of { shift : int }

val apply_activation : activation -> int -> int

val scale_to : Dtype.t -> scale:float -> int -> int
(** The accumulator read-out path: scale (rounding, nearest-even) and
    saturate an accumulator value down to the given narrower type.
    [scale_to Int32 ~scale:1.0] is the identity used for full-width
    reads. *)

(** 2-D max pooling over an NHWC tensor, as performed by the mvout path's
    pooling unit. *)
val max_pool :
  window:int ->
  stride:int ->
  padding:int ->
  Gem_util.Tensor.t ->
  Gem_util.Tensor.t
(** Input and output are rank-4 NHWC. Padding cells are -infinity
    (never selected). *)

val avg_pool_global : Gem_util.Tensor.t -> Gem_util.Tensor.t
(** Global average pooling N,H,W,C -> N,1,1,C with round-to-nearest. *)

val im2col :
  input:Gem_util.Tensor.t ->
  kernel:int ->
  stride:int ->
  padding:int ->
  Gem_util.Matrix.t
(** Lowers an NHWC input into the patch matrix of a [kernel x kernel]
    convolution: rows are output pixels (n*oh*ow), columns are
    [kernel*kernel*channels] patch elements, zero-padded at the borders.
    This is the transform the optional hardware im2col block performs
    on-the-fly, and the host CPU performs in software when the block is
    absent (the Fig. 7 trade-off). *)

val conv_output_dim : in_dim:int -> kernel:int -> stride:int -> padding:int -> int

val transpose : Gem_util.Matrix.t -> Gem_util.Matrix.t
(** The transposer block (used to feed A^T in OS dataflow). *)
