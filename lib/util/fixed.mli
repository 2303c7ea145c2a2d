(** Saturating fixed-point arithmetic, as used by Gemmini's datapath.

    Gemmini's default integer configuration multiplies [int8] inputs into
    [int32] accumulators, then scales results back down to [int8] with a
    rounding right-shift (or a float multiplier) followed by saturation.
    These helpers implement that arithmetic exactly so the functional model
    is bit-faithful to the hardware semantics. *)

val int8_min : int
val int8_max : int
val int32_min : int
val int32_max : int

val sat8 : int -> int
(** Saturate to signed 8-bit range. *)

val sat32 : int -> int
(** Saturate to signed 32-bit range. *)

val mac32 : acc:int -> int -> int -> int
(** [mac32 ~acc a b] is [sat32 (acc + a*b)] — one PE multiply-accumulate. *)

val rounding_shift : int -> int -> int
(** [rounding_shift x s] divides [x] by [2^s] with round-half-to-even
    semantics matching Gemmini's hardware rounding. [s = 0] is identity;
    requires [s >= 0]. *)

val relu : int -> int
(** max(x, 0). *)

val relu6 : shift:int -> int -> int
(** Clamp to [0, 6 << shift] — Gemmini's ReLU6 takes the fixed-point
    position of "6" as a shift amount. *)
