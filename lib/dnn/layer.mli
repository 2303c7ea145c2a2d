(** Layer-level intermediate representation of DNN workloads.

    The evaluation networks (ResNet50, AlexNet, SqueezeNet v1.1,
    MobileNetV2, BERT) are described as sequences of these layers. The
    timing simulator consumes shapes only; the functional runtime also
    moves data for small instances. Layer classes matter because the
    paper's case studies differentiate them: convolutions (high reuse),
    matmuls (moderate reuse), residual additions (no reuse, cache-
    sensitive) — see Fig. 9. *)

type conv_spec = {
  in_h : int;
  in_w : int;
  in_ch : int;
  out_ch : int;
  kernel : int;
  stride : int;
  padding : int;
  relu : bool;
  depthwise : bool;  (** depthwise: one filter per channel, [out_ch = in_ch] *)
}

type matmul_spec = {
  m : int;
  k : int;
  n : int;
  relu : bool;
  count : int;  (** identical GEMMs batched (e.g. attention heads) *)
}

type pool_spec = {
  p_in_h : int;
  p_in_w : int;
  p_ch : int;
  window : int;
  p_stride : int;
  p_padding : int;
}

type t =
  | Conv of conv_spec
  | Matmul of matmul_spec
  | Residual_add of { r_h : int; r_w : int; r_ch : int; back1 : int; back2 : int }
      (** element-wise sum of the outputs of the layers [back1] and
          [back2] positions earlier in the sequence (1 = immediately
          preceding). The distance matters: far-back operands are the ones
          evicted from a small shared L2 (Fig. 9). *)
  | Max_pool of pool_spec
  | Global_avg_pool of { g_h : int; g_w : int; g_ch : int }
  | Elementwise of { e_elems : int; e_name : string }
      (** softmax, layernorm, GELU, quantize — host/peripheral ops *)

type klass = Class_conv | Class_depthwise | Class_matmul | Class_resadd | Class_pool | Class_elementwise

val class_of : t -> klass
val class_name : klass -> string

val conv_out_dims : conv_spec -> int * int
(** (out_h, out_w). *)

val pool_out_dims : pool_spec -> int * int
(** (out_h, out_w) of a pooling window sweep. *)

val macs : t -> int
(** Multiply-accumulates (0 for non-MAC layers). *)

val weight_bytes : t -> int
(** int8 weights (int32 bias excluded). *)

val in_bytes : t -> int
val out_bytes : t -> int

val as_matmul : t -> matmul_spec option
(** The GEMM a layer lowers to on the accelerator: convs lower via im2col
    ([m] = out pixels, [k] = kernel^2*in_ch, [n] = out_ch); depthwise convs
    lower per-channel ([count = channels], [k] = kernel^2, [n] = 1).
    [None] for non-MAC layers. *)

val describe : t -> string

type model = { model_name : string; input_desc : string; layers : (string * t) list }

val total_macs : model -> int
val total_weight_bytes : model -> int
val layer_count : model -> int
