(** The accelerator's DMA engine.

    Every [mvin]/[mvout] decomposes into per-row requests: each row is
    translated through the {!Gem_vm.Hierarchy} (splitting at page
    boundaries, exactly where the real DMA splits TileLink requests), then
    moves across the accelerator's private bus into the shared memory
    system. Translation latency is on the critical path — the DMA blocks
    on a TLB miss — which is what makes the Fig. 8 TLB-sizing and
    filter-register effects visible end to end. *)

(** Connection to the SoC memory system. Timing closures charge the shared
    L2/DRAM resources and return completion times; data closures (optional:
    present in functional mode) move real bytes. *)
type port = {
  read_timing :
    now:Gem_sim.Time.cycles -> paddr:int -> bytes:int -> Gem_sim.Time.cycles;
  write_timing :
    now:Gem_sim.Time.cycles -> paddr:int -> bytes:int -> Gem_sim.Time.cycles;
  read_data : (paddr:int -> n:int -> int array) option;
      (** returns unsigned bytes *)
  write_data : (paddr:int -> int array -> unit) option;
  page_run :
    first:Gem_sim.Time.cycles ->
    spacing:Gem_sim.Time.cycles ->
    n:int ->
    paddr:int ->
    stride:int ->
    row_bytes:int ->
    write:bool ->
    Gem_sim.Time.cycles;
      (** the timing of [n] rows of [row_bytes] inside one page, the i-th
          at [paddr + i*stride] arriving at [first + i*spacing]: the same
          state and statistics as a timing-closure call per row, returning
          the latest completion *)
}

val null_port : port
(** Zero-latency, no-data port for unit tests. *)

type t

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  ?core:int ->
  Params.t ->
  port:port ->
  tlb:Gem_vm.Hierarchy.t ->
  t
(** The DMA link registers itself in [engine]'s resource registry (fresh
    private engine when none is supplied) and emits typed [Transfer]
    events per burst when the engine is observing. [core] (default -1)
    attributes bus-error faults. *)

val tlb : t -> Gem_vm.Hierarchy.t

val set_inject : t -> Gem_sim.Inject.t -> unit
(** Arms deterministic injection: every burst segment rolls the plan's
    [Dma_error] stream after securing its bus slot; a fired roll raises a
    {!Gem_sim.Fault.Trap} (cause [Dma_bus_error]) instead of completing
    the segment. *)

val bus : t -> Gem_sim.Resource.t
(** The engine-registered DMA link resource. *)

val mvin :
  t ->
  now:Gem_sim.Time.cycles ->
  vaddr:int ->
  stride_bytes:int ->
  rows:int ->
  row_bytes:int ->
  int array array
(** Reads [rows] rows of [row_bytes], the i-th at
    [vaddr + i*stride_bytes], and returns each row's bytes in functional
    mode, [[||]] when timing-only. The transfer's timing is read back
    with {!engine_free} and {!finish}, so a timing-only transfer
    allocates nothing.

    On a quiet engine (no sink), with no injection plan and no hierarchy
    observer, a timing-only transfer charges each run of rows that stay
    inside the page of the previous row's last byte in one step
    ({!Gem_vm.Hierarchy.repeat}, {!Gem_sim.Resource.acquire_run},
    [port.page_run]); every counter and resource state ends as the
    per-row walk leaves it. *)

val mvout :
  t ->
  now:Gem_sim.Time.cycles ->
  vaddr:int ->
  stride_bytes:int ->
  rows_data:int array array ->
  row_bytes:int ->
  unit
(** Writes rows; the timing is read back as for {!mvin}. *)

val mvout_timing_rows :
  t ->
  now:Gem_sim.Time.cycles ->
  vaddr:int ->
  stride_bytes:int ->
  rows:int ->
  row_bytes:int ->
  unit
(** Timing-only variant of {!mvout}. *)

val engine_free : t -> Gem_sim.Time.cycles
(** When the last transfer lets the DMA engine issue its next burst: the
    engine streams ahead with multiple requests outstanding, so in-flight
    misses do not block it. *)

val finish : t -> Gem_sim.Time.cycles
(** When all of the last transfer's data has landed. *)

(* Statistics *)

val bytes_in : t -> int
val bytes_out : t -> int
val row_requests : t -> int
val busy_cycles : t -> Gem_sim.Time.cycles
val reset_stats : t -> unit

val inject : t -> Gem_sim.Inject.t option
(** The armed injection plan, if any — the SoC snapshots it once (it is
    the same instance the TLB hierarchy rolls). *)

val codec : t Gem_util.Snap.t
(** Byte/row counters only; bus timing is engine-owned and the injection
    plan is serialized at the SoC level. *)
