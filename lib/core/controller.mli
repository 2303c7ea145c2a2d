(** The accelerator controller: decodes the RoCC command stream and models
    Gemmini's decoupled load / execute / store pipelines.

    Timing model. Commands are issued by the host at a per-instruction
    cost, subject to a reorder-window back-pressure of
    [Params.max_in_flight] outstanding commands. Each functional unit
    (DMA-in, mesh, DMA-out) processes its commands in order on its own
    clock, so loads for the next tile overlap computation of the current
    one (double buffering emerges from the program order of the command
    stream, as on the real chip). Data dependencies are the conservative
    program-order ones the hardware enforces through its ROB: a compute
    waits for every earlier load, a store waits for every earlier
    compute.

    Functional model. When the DMA port carries data closures, commands
    also move real bytes through the scratchpad/accumulator and run real
    matmuls on the cycle-accurate {!Mesh} — the same datapath the unit
    tests validate against the reference product. *)

type t

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  ?core:int ->
  params:Params.t ->
  port:Dma.port ->
  tlb:Gem_vm.Hierarchy.t ->
  issue_cycles:int ->
  unit ->
  t
(** [issue_cycles] is the host CPU's cost to dispatch one RoCC command.

    All pipeline timing lives in [engine] (a fresh private
    {!Gem_sim.Engine} when none is supplied): the load / mesh / store
    pipes register as resources [name ^ "/ld"], [name ^ "/mesh"] and
    [name ^ "/st"], the scratchpad, DMA link and a host probe alongside
    them. [name] defaults to ["accel"]. [core] (default 0) tags every
    fault this controller or its sub-components raise. *)

val engine : t -> Gem_sim.Engine.t
(** The simulation context carrying this controller's clocks and
    per-component statistics. *)

val params : t -> Params.t
val scratchpad : t -> Scratchpad.t
val dma : t -> Dma.t
val tlb : t -> Gem_vm.Hierarchy.t

val execute : t -> Isa.t -> unit
(** Executes one command (decode + dispatch + simulate). Every command is
    first checked with {!Isa.validate}; an invalid one raises a
    structured {!Gem_sim.Fault.Trap} before any state moves, as do
    sequencing errors caught later (compute without preload, LOOP_WS
    without its configuration commands) and faults from the memory
    system underneath. *)

val execute_run : t -> Tiled_matmul.compute_run -> unit
(** Executes the run's commands with exactly {!execute}'s timing,
    counters, spans and traps. A run that {!Tiled_matmul.run_fits} is
    checked once, not per command, and a quiet engine executes it without
    building any command; one that does not fit executes its
    {!Tiled_matmul.run_commands} through
    {!execute}, so it traps where its first invalid command would. *)

val host_work : t -> cycles:int -> unit
(** Host-CPU busy time (im2col, data marshalling) that blocks further
    command issue. *)

val advance_to : t -> cycle:Gem_sim.Time.cycles -> unit
(** Parks the issue cursor at [cycle] (no-op when it is already past):
    pure idle time, charging no host cycles and no resource occupancy.
    Used by the serving scheduler to make a core wait for the next
    request arrival. *)

val now : t -> Gem_sim.Time.cycles
(** The issue cursor: when the host could dispatch the next command. *)

val host_component : t -> string
(** Name of the host-interface component ("<name>/host") — the span track
    for software-level (network/layer/kernel) and host-serviced command
    spans. *)

val finish_time : t -> Gem_sim.Time.cycles
(** When all issued work (including in-flight DMA/compute) completes. *)

val set_issue_cycles : t -> int -> unit

(* Statistics *)

type stats = {
  insns : int;  (** host-dispatched commands *)
  loop_micro_ops : int;  (** commands expanded internally by LOOP_WS *)
  loads : int;
  stores : int;
  computes : int;
  macs : int;
  host_cycles : int;
  flushes : int;
  ld_busy : Gem_sim.Time.cycles;  (** from the engine's ld-pipe resource *)
  ex_busy : Gem_sim.Time.cycles;  (** from the engine's mesh-pipe resource *)
  st_busy : Gem_sim.Time.cycles;  (** from the engine's st-pipe resource *)
}

val stats : t -> stats

val utilization : t -> float
(** MACs performed / (PEs x total cycles). *)

val codec : t Gem_util.Snap.t
(** Everything the next command's timing or decode depends on: issue
    cursor, data-landing high-water marks, the reorder window, staged
    configuration (ex/ld/st configs, preload, LOOP_WS staging), counters,
    nested scratchpad and DMA counters, and — in functional mode — the
    mesh-resident tiles and SRAM contents. The three pipeline resources
    travel with {!Gem_sim.Engine.codec}. Restores into a controller of the
    same parameters. *)
