(** Hardware page-table walker.

    The paper's Section V-A design point uses a single PTW shared by the
    host CPU and the accelerator ("suitable for low-power devices"), so
    walks serialize on one resource. Each level of the walk reads an 8-byte
    PTE from physical memory through a caller-supplied access function —
    in the SoC this routes through the shared L2, so walks both suffer and
    cause cache traffic. *)

type t

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  ?pte_cache_entries:int ->
  page_table:Page_table.t ->
  mem_read:(now:Gem_sim.Time.cycles -> paddr:int -> bytes:int -> Gem_sim.Time.cycles) ->
  unit ->
  t
(** [pte_cache_entries] (default 64) bounds the walker's cache of
    {e non-leaf} PTEs (Rocket's "page-table cache"): upper levels of hot
    regions are served without memory reads, so a typical walk costs one
    leaf PTE read. Leaf PTEs are never cached — that is the TLB's job. *)

exception Page_fault of int
(** Raised with the faulting virtual page number when no mapping exists. *)

val walk : t -> now:Gem_sim.Time.cycles -> vpn:int -> int * Gem_sim.Time.cycles
(** [walk t ~now ~vpn] performs a serialized hardware walk and returns
    [(ppn, finish_time)]. Raises {!Page_fault} on an unmapped page. *)

val walks : t -> int
val pte_reads : t -> int
val pte_cache_hits : t -> int
val total_walk_cycles : t -> Gem_sim.Time.cycles
val reset_stats : t -> unit

val codec : t Gem_util.Snap.t
(** PTE-cache contents in FIFO insertion order plus statistics; the walker
    resource itself travels with the engine snapshot. *)
