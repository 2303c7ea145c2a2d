(** Sv39-style three-level radix page table.

    Each process in the simulated SoC has its own page table mapping 4 KiB
    virtual pages to physical pages. Table nodes are themselves assigned
    physical addresses (from a dedicated region supplied at creation), so a
    page-table walk issues real memory reads that travel through the shared
    L2 — exactly the cross-stack effect Gemmini's full-SoC integration is
    meant to expose. *)

val page_bits : int
(** 12: 4 KiB pages. *)

val page_size : int
val levels : int
(** 3 levels of 9 bits of VPN each. *)

val vpn_of_vaddr : int -> int
val page_offset : int -> int

type t

val create : node_region_base:int -> unit -> t
(** [node_region_base] is the physical address where table nodes are
    allocated (each node occupies 4 KiB). *)

val map : t -> vpn:int -> ppn:int -> unit
(** Installs (or replaces) a translation. Allocates intermediate nodes as
    needed. *)

val map_range : t -> vaddr:int -> bytes:int -> paddr:int -> unit
(** Maps every page overlapping [vaddr, vaddr+bytes) linearly onto the
    physical range starting at [paddr]. Both addresses must be
    page-aligned. *)

val unmap : t -> vpn:int -> int option
(** Removes a translation, returning the PPN it pointed at ([None] when
    the page was not mapped). Interior nodes are left in place — like a
    real OS swap-out, only the leaf PTE is cleared. *)

val translate : t -> vaddr:int -> int option
(** Full software translation of a virtual address, [None] if unmapped. *)

val walk : t -> vpn:int -> int list * int option
(** [walk t ~vpn] returns the physical addresses of the page-table entries
    a hardware walker reads (one per level actually visited, in order) and
    the resulting PPN ([None] on a page fault). *)

val mapped_pages : t -> int
val node_count : t -> int

val codec : t Gem_util.Snap.t
(** The complete radix tree with per-node physical addresses (allocation
    order determines PTE read addresses, hence walk timing) plus the node
    allocator cursor. Restores only into a table created with the same
    [node_region_base]; a child or leaf index outside a node is
    malformed. *)
