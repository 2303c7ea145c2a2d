(** Deterministic fault injection plans.

    A plan is a set of independent seeded {!Gem_util.Rng} streams, one per
    injectable fault class. Components that hold a plan roll it at their
    decision points (per DMA burst segment, per translation request); a
    roll fires with the configured probability. Because every stream is
    derived from the plan's seed and rolls happen in simulated order, the
    same seed always reproduces the same fault trace — which is what makes
    the dual-core determinism guard hold under injection. *)

(** Which decision point is being rolled. *)
type target =
  | Dma_error  (** fail the current DMA burst segment on the bus *)
  | Tlb_drop  (** invalidate the translation being requested (re-walk) *)
  | Unmap  (** unmap the page being translated (host must remap) *)

type t

val create : seed:int -> rate:float -> unit -> t
(** [create ~seed ~rate ()] builds a plan whose every roll fires with
    probability [rate] (clamped to [0, 1]). Equal seeds give equal
    plans. *)

val seed : t -> int
val rate : t -> float

val fire : t -> target -> bool
(** Rolls [target]'s stream once; true means inject here. Streams are
    independent: rolling one never perturbs the others. *)

val count : t -> target -> int
(** How many times [target] has fired so far. *)

val total : t -> int

val describe : t -> string
(** One-line summary: seed, rate, per-target fire counts. *)

val codec : t Gem_util.Snap.t
(** Full plan state: seed, rate, the three RNG cursors and fire counts.
    A decoded plan continues its rolls exactly where the snapshotted plan
    left off. *)
