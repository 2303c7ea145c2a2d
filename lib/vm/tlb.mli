(** Fully-associative TLB with true LRU replacement.

    Gemmini's private accelerator TLB and the larger shared L2 TLB of the
    Section V-A case study are both instances of this structure (the paper
    sweeps 4–512 entries, small enough that full associativity is what the
    RTL builds). An [entries = 0] TLB is legal and misses on every lookup —
    that is the "no shared L2 TLB" design point of Fig. 8. Lookups, fills
    and evictions are O(1) and allocate nothing. *)

type t

val create : entries:int -> t

val entries : t -> int

val miss : int
(** [-1]: the {!lookup} result of a miss (PPNs are non-negative). *)

val lookup : t -> vpn:int -> int
(** The PPN on a hit, {!miss} otherwise. Updates recency on hit, counts
    statistics; allocates nothing. *)

val hit_again : t -> vpn:int -> n:int -> unit
(** The state and statistics [n] hitting {!lookup}s of a resident [vpn]
    leave behind, in one step. Raises [Invalid_argument] when [vpn] is not
    resident. *)

val probe : t -> vpn:int -> int option
(** Like {!lookup} but with no recency/statistics side effects. *)

val fill : t -> vpn:int -> ppn:int -> unit
(** Installs a translation, evicting the LRU entry if full. No-op on a
    0-entry TLB. Refilling an existing vpn updates its PPN and recency. *)

val invalidate : t -> vpn:int -> unit
(** Invalidates one translation if present (targeted sfence.vma / page
    unmap). No-op when [vpn] is not resident. *)

val flush : t -> unit
(** Invalidates everything (context switch / sfence.vma). *)

val occupancy : t -> int

(* Statistics *)

val lookups : t -> int
val hits : t -> int
val misses : t -> int
val hit_rate : t -> float
val reset_stats : t -> unit

val codec : t Gem_util.Snap.t
(** Slot-exact state: every slot's vpn/ppn/recency in allocation order,
    plus the LRU clock and statistics — a restored TLB makes byte-identical
    replacement decisions. The size is checked, not restored. *)
