(** An elaborated SoC: cores (CPU + accelerator + TLBs + page table) wired
    to a shared L2, a shared DRAM channel, and — in functional mode — a
    shared physical main memory.

    All DMA and page-table-walk traffic flows through the shared L2 and
    DRAM bandwidth models, so multi-core contention (Fig. 9) and
    translation overheads (Fig. 4 / Fig. 8) are emergent rather than
    scripted. *)

type t

type core

val create : Soc_config.t -> t
(** Elaborates the SoC around a single {!Gem_sim.Engine}: every timed
    component (L2 port, DRAM channel, per-core pipelines, DMA links,
    PTWs) registers in its resource registry, so one registry describes
    the whole chip. *)

val engine : t -> Gem_sim.Engine.t
(** The chip-wide simulation context; [Gem_sim.Engine.stats] /
    [utilization_table] give the per-component profile. *)

val config : t -> Soc_config.t
val cores : t -> core array
val core : t -> int -> core
val l2 : t -> Gem_mem.Cache.t
val dram : t -> Gem_mem.Dram.t
val mainmem : t -> Gem_mem.Mainmem.t option

(* Core accessors *)

val core_id : core -> int
val cpu : core -> Gem_cpu.Cpu_model.kind
val controller : core -> Gemmini.Controller.t
val tlb : core -> Gem_vm.Hierarchy.t
val page_table : core -> Gem_vm.Page_table.t

val alloc : t -> core -> bytes:int -> int
(** Allocates [bytes] of page-aligned virtual memory in the core's address
    space, backed by fresh physical pages (mapped in the page table).
    Returns the virtual address. *)

val va_extent : core -> int * int
(** [(lo, hi)]: the core's allocated virtual address range so far. *)

val unmap_page : t -> core -> vaddr:int -> bool
(** Unmaps the page containing [vaddr] (leaf PTE cleared, TLB shootdown),
    stashing its physical page so a later {!map_page} restores the same
    contents — a swap-out. False when the page was not mapped. *)

val map_page : t -> core -> vaddr:int -> unit
(** (Re)maps the page containing [vaddr]: swapped-out pages get their
    original frame back, never-mapped ones a fresh zero frame. This is
    the host's page-fault handler, used by the runtime's [Retry_map]
    policy. *)

val arm_injection : t -> seed:int -> rate:float -> unit
(** Arms deterministic fault injection on every core: per-core
    {!Gem_sim.Inject} plans (seeds derived from [seed]) are hooked into
    each DMA (bus errors) and TLB hierarchy (drops and page unmaps).
    Equal seeds replay identical fault traces. *)

val snapshot : t -> Gem_util.Jsonx.t
(** The full mutable state of the chip: engine clock + resource registry
    + fault tallies, L2 tags/dirty/LRU, DRAM counters, main-memory pages
    (functional mode), the physical-page bump allocator, and per core the
    controller (nested scratchpad/DMA), TLB hierarchy, page-table tree,
    virtual-address allocator, swap table and armed injection plan (with
    its RNG cursors). Deterministic: equal states serialize to equal
    JSON. *)

val restore : t -> Gem_util.Jsonx.t -> unit
(** Restores into a freshly-created SoC of the {e same}
    {!Soc_config.t}. Re-arms each core's injection hooks when the
    snapshot carries a plan. Raises {!Gem_util.Snap.Malformed} when the
    snapshot does not match this SoC's shape (resource registry, core
    count, memory geometry). *)

(* Host-side (zero-simulated-cost) data access, functional mode only. *)

val host_write_i8 : t -> core -> vaddr:int -> int array -> unit
val host_read_i8 : t -> core -> vaddr:int -> n:int -> int array
val host_write_i32 : t -> core -> vaddr:int -> int array -> unit
val host_read_i32 : t -> core -> vaddr:int -> n:int -> int array

(** Programs: per-core streams of accelerator commands, host work, and
    bookkeeping markers. *)
type op =
  | Insn of Gemmini.Isa.t
  | Host_work of { cycles : int; tag : string }
  | Marker of (core -> unit)
      (** executed (zero cost) when the core reaches this point *)
  | Guarded of { op : op; run : core -> op -> unit }
      (** [run core op] executes [op] wrapped in caller-supplied trap
          handling (the runtime's fault policies). One [run] handler is
          shared by every op it guards, so wrapping allocates no
          per-op closure. Keeping the underlying [op] visible lets the
          parallel driver classify the work as core-private or shared
          without forcing the wrapper. *)

val exec_op : core -> op -> unit
(** Executes one op on the core. Exposed so recovery layers (the
    runtime's fault policies) can wrap each op in their own
    trap-handling before delegating here. *)

val run_program : t -> core -> op Seq.t -> Gem_sim.Time.cycles
(** Runs a single core's program to completion; returns its finish time. *)

val run_parallel : ?domains:int -> t -> op Seq.t array -> Gem_sim.Time.cycles array
(** Runs one program per core, interleaved in simulated-time order (the
    core whose issue cursor is earliest executes next), so shared-resource
    contention is interleaving-accurate. Returns per-core finish times.

    With [domains > 1] (default 1), core-private ops execute on up to
    [domains - 1] worker Domains while shared ops stay on the
    coordinator, scheduled so every simulated-time pick happens in
    exactly the sequential order: cycle counts, metrics and snapshots
    are byte-identical at any Domain count. Falls back to the sequential
    driver for single-program runs and whenever the engine has trace
    observers attached ({!Gem_sim.Engine.live}). *)

val finish_time : t -> Gem_sim.Time.cycles
(** Max finish time over cores. *)
