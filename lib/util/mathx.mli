(** Small integer/float math helpers used throughout the simulator. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded towards positive infinity.
    Requires [b > 0] and [a >= 0]. *)

type ceil_memo

val ceil_memo : int -> ceil_memo
val ceil_div_memo : ceil_memo -> int -> int
(** [ceil_div_memo (ceil_memo b) a] is [ceil_div a b], dividing only when
    [a] differs from the last dividend: for sizes that rarely change. *)

val round_up : int -> int -> int
(** [round_up a b] is the smallest multiple of [b] that is [>= a]. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is true iff [n] is a positive power of two. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the smallest [k] with [2^k >= n]. Requires [n >= 1]. *)

val log2_exact : int -> int
(** [log2_exact n] is [k] such that [2^k = n]. Raises [Invalid_argument]
    if [n] is not a power of two. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] restricts [x] to the inclusive range [lo, hi]. *)

val rows_within : lo:int -> hi:int -> first:int -> stride:int -> n:int -> int
(** How many leading terms of [first + j*stride], [j = 0 .. n-1], lie in
    [lo, hi]: [0] when [first] does not, else the whole run up to the
    first term past either end (any stride sign, [0] included), in O(1).
    With [hi = lo + extent - len], the rows of [len] bytes at those
    addresses that stay wholly inside [lo, lo + extent). *)

val imax3 : int -> int -> int -> int

val sum_list : int list -> int
val sum_listf : float list -> float

val pct : float -> float -> float
(** [pct part whole] is [100 * part / whole], or [0.] when [whole = 0.]. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or [0.] when [b = 0.]. *)
