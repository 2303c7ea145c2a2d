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

(** Ops: accelerator commands, host work, and bookkeeping markers. *)
type op =
  | Insn of Gemmini.Isa.t
  | Compute_run of Gemmini.Tiled_matmul.compute_run
      (** a tile step's preload/compute nest in one op: executes as its
          {!Gemmini.Tiled_matmul.run_commands} would, through
          {!Gemmini.Controller.execute_run} *)
  | Host_work of { cycles : int; tag : string }
  | Marker of (core -> unit)
      (** executed (zero cost) when the core reaches this point *)

type steps = ((op -> unit) -> unit) Seq.t
(** A loop nest expanded on demand: each element is one step, which
    pushes its ops through the [emit] it is given, in program order. *)

val exec_op : core -> op -> unit
(** Executes one op on the core, unguarded. *)

type program
(** The SoC's program type: a cursor over a lazy sequence of pieces, each
    a {!steps}. Each refill expands the next step into one reused buffer,
    so at most one step's ops are live, and a piece is built only once
    the previous one is spent. A program is consumed once. *)

val program : ?guard:(core -> op -> unit) -> steps Seq.t -> program
(** [program ?guard pieces]. With [guard], every op but a {!Marker} runs
    as [guard core op] instead of {!exec_op} — the runtime's fault
    policies wrap each command in their trap handling this way. One
    handler serves every op, so guarding allocates nothing per op; a
    guard sees a {!Compute_run} as one op. *)

val op_seq : steps Seq.t -> op Seq.t
(** The ops of [program pieces] as an ephemeral [Seq], for consumers that
    inspect the stream or feed {!run_program}: force each node once. Each
    {!Compute_run} appears as its commands, so the stream is the command
    stream the SoC executes. *)

val run_program : t -> core -> op Seq.t -> Gem_sim.Time.cycles
(** Runs a single core's op stream to completion, unguarded; returns its
    finish time. *)

val run_parallel : t -> program array -> Gem_sim.Time.cycles array
(** The SoC's driver: runs program [i] on core [i], interleaved in
    simulated-time order — the core whose issue cursor is earliest
    executes its next op, ties going to the lowest core index. Shared-
    resource contention is therefore interleaving-accurate, and every run
    is deterministic. When the engine is live at the start, each
    {!Compute_run} is dispatched as its commands, so a multi-core trace
    interleaves the cores' command events as it would command by command;
    a quiet run dispatches it whole, which moves no cycle. Returns
    per-program finish times. One program runs
    a single core; an empty program ([program Seq.empty]) leaves its core
    idle. Raises [Invalid_argument] when there are more programs than
    cores. *)

val finish_time : t -> Gem_sim.Time.cycles
(** Max finish time over cores. *)
