(** Set-associative write-back, write-allocate cache with LRU replacement.

    Used for the SoC's shared L2. Gemmini's DMA traffic flows through the
    shared L2 (as in Chipyard's TileLink hierarchy), so the cache contents
    are what create the resource-partitioning effects of the paper's
    Section V-B case study: residual-add inputs surviving (or not) in the
    L2, and dual-core workloads thrashing each other's lines. *)

type t

type result =
  | Hit
  | Miss  (** miss with a clean (or invalid) victim line *)
  | Miss_writeback
      (** miss whose victim line was dirty and must be written back to
          DRAM. Constant constructors keep the hot path allocation-free. *)

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  size_bytes:int ->
  ways:int ->
  line_bytes:int ->
  unit ->
  t
(** [size_bytes] must be divisible by [ways * line_bytes], the line size
    and the number of sets must be powers of two, and [ways] at most 255.
    When [engine] is given, the cache registers a metrics probe
    (accesses, hit rate, writebacks) in its registry; timing stays with
    the owner of the cache's port resource. *)

val sets : t -> int

val access : t -> addr:int -> write:bool -> result
(** One access to the line containing [addr], in O(1). Allocates on miss
    (into the lowest invalid way, else evicting the set's LRU line) and
    marks the line dirty on writes. *)

val mru_line : t -> int
(** The line ([addr / line_bytes]) the last {!access} touched, or -1
    after {!create}, {!invalidate_all} or a restore. That line is
    resident: only a later access can evict it. *)

val hit_mru : t -> n:int -> write:bool -> unit
(** [n] accesses to the {!mru_line}, all hits: the same statistics, LRU
    clock, age and dirty flag as [n] calls of {!access} on that line
    leave, in O(1). Requires a last-accessed line and [n >= 1]. *)

val access_range : t -> addr:int -> bytes:int -> write:bool -> int * int * int
(** [access_range t ~addr ~bytes ~write] touches every line overlapping
    [addr, addr+bytes) and returns [(hits, misses, writebacks)]. *)

val probe : t -> addr:int -> bool
(** True when the line containing [addr] is resident (no state change). *)

val resident_lines : t -> int
(** Number of valid lines currently held. *)

val invalidate_all : t -> unit
(** Drops all lines without writeback (used between experiment runs). *)

(* Statistics *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val miss_rate : t -> float

val codec : t Gem_util.Snap.t
(** Full replacement state (tags/dirty/LRU ages) plus statistics; the
    geometry is checked, not restored. A restore rebuilds the lookup
    index and recency lists from the tags and ages, and refuses a valid
    line whose age is above the clock. *)
