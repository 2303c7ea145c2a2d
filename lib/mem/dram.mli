(** DRAM channel model: fixed access latency plus a shared bandwidth
    resource.

    A request of [bytes] arriving at [now] occupies the channel for
    [ceil (bytes / bytes_per_cycle)] cycles after any queued requests, and
    data arrives [latency] cycles after its service slot starts. All
    requestors of an SoC (every core's accelerator DMA and every CPU) share
    one instance, which is how DRAM bandwidth contention appears in the
    dual-core experiments. *)

type t

val create :
  ?engine:Gem_sim.Engine.t ->
  ?name:string ->
  latency:Gem_sim.Time.cycles ->
  bytes_per_cycle:int ->
  unit ->
  t
(** The channel registers itself in [engine]'s resource registry (a fresh
    private engine is created when none is supplied). *)

val latency : t -> Gem_sim.Time.cycles
val bytes_per_cycle : t -> int

val access :
  t -> now:Gem_sim.Time.cycles -> bytes:int -> write:bool -> Gem_sim.Time.cycles
(** Completion time of the request. *)

val bytes_read : t -> int
val bytes_written : t -> int
val requests : t -> int
val busy_cycles : t -> Gem_sim.Time.cycles
val reset : t -> unit

val codec : t Gem_util.Snap.t
(** Byte counters only — the channel's timing state is engine-owned and
    travels with {!Gem_sim.Engine.codec}. *)
