(** Host-CPU timing models: a Rocket-class in-order core and a BOOM-class
    out-of-order core.

    The paper uses these two hosts in three roles, all modeled here:
    + {b baseline}: running whole DNNs in software (the denominator of
      every Fig. 7 speedup);
    + {b offload helper}: performing im2col in software when the
      accelerator lacks the im2col block, plus per-command RoCC dispatch;
    + {b system role}: OS noise/launch overheads.

    Calibration. Cycles-per-MAC constants are fitted to the paper's
    reported end points: 2,670x ResNet50 speedup over Rocket at 22.8 FPS
    (implies ~28 cycles/MAC for software convolution), 144x on BERT
    (implies ~1.7 cycles/MAC for well-blocked integer GEMM), 127x on
    MobileNetV2 (~22 cycles/MAC for depthwise), and the 2.0x
    Rocket-to-BOOM gain when the CPU performs im2col. Everything else
    (which network wins, where crossovers fall) is produced by the model,
    not fitted. *)

type kind = Rocket | Boom

val name : kind -> string

val issue_cycles : kind -> int
(** Cost to dispatch one RoCC command to the accelerator. *)

(* Software kernel costs (running ON the CPU). *)

val conv_macs_cycles : kind -> macs:int -> int
(** Direct/naive-im2col convolution in software. *)

val matmul_macs_cycles : kind -> macs:int -> int
(** Blocked integer GEMM in software. *)

val depthwise_macs_cycles : kind -> macs:int -> int

val elementwise_cycles : kind -> elems:int -> int
(** Residual adds and table-driven int8 activation passes (softmax,
    layernorm, GELU approximations). *)

val pooling_cycles : kind -> elems:int -> window:int -> int
(** [elems] output elements, each scanning [window^2] inputs. *)

val im2col_cycles : kind -> patch_elems:int -> int
(** Producing the patch matrix for the accelerator when the hardware
    im2col block is absent: [patch_elems] is rows x cols of the patch
    matrix. *)
