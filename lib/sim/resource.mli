(** Serially-occupied shared resources with bandwidth-style arbitration.

    A resource (a bus, a DRAM channel, a cache port) can serve one request
    at a time. A request arriving at [now] that needs [occupancy] cycles of
    service starts at [max now busy_until] and completes [occupancy] cycles
    later. This greedy timestamp arbitration is how contention between the
    accelerator's load/store streams — and between cores of a multi-core
    SoC — is modeled. Every request also records its queue latency
    (start minus [now]) in the resource's own allocation-free histogram. *)

type t

val create : name:string -> t

val name : t -> string

val acquire : t -> now:Time.cycles -> occupancy:Time.cycles -> Time.cycles
(** [acquire t ~now ~occupancy] reserves the resource and returns the
    completion time. Requires [occupancy >= 0]. A zero-occupancy request
    returns its service-slot time ([max now busy_until]) and counts as a
    request, but never advances [busy_until] or [busy_cycles]. *)

val acquire_run :
  t -> now:Time.cycles -> gap:Time.cycles -> occupancy:Time.cycles -> n:int ->
  Time.cycles
(** [n] requests of [occupancy] cycles, the first arriving at [now] and
    each later one [gap] cycles after its predecessor finishes; returns the
    last one's completion. In O(1), every statistic ends as [n] calls of
    {!acquire} leave it. Requires [occupancy >= 0], [gap >= 0], [n >= 1]. *)

val acquire_spaced :
  t -> now:Time.cycles -> spacing:Time.cycles -> occupancy:Time.cycles ->
  n:int -> Time.cycles
(** [n] requests of [occupancy] cycles, the [j]-th arriving at
    [now + j*spacing] whatever the earlier ones' completions; returns the
    last one's completion. Every statistic ends as [n] calls of
    {!acquire} leave it, in time linear only in the requests that wait.
    Requires [occupancy >= 0], [spacing >= 0], [n >= 1]. *)

val next_free : t -> now:Time.cycles -> Time.cycles
(** When a request arriving at [now] could start service:
    [max now busy_until]. Pure query, no statistics side effects. *)

val occupy_until : t -> now:Time.cycles -> start:Time.cycles -> until:Time.cycles -> unit
(** Commits a reservation whose duration was computed externally (after a
    {!next_free} query): charges [start - now] wait and [until - start]
    busy cycles and advances [busy_until] to at least [until]. Requires
    [now <= start <= until]. *)

val busy_until : t -> Time.cycles

val busy_cycles : t -> Time.cycles
(** Total cycles of service performed so far. *)

val requests : t -> int

val wait_cycles : t -> Time.cycles
(** Total cycles requests spent queued behind earlier requests. *)

val latency : t -> Gem_util.Stats.Histogram.t
(** A copy of the queue-latency histogram (64 buckets over 4096.0 cycles,
    exact max) of every request since creation or {!reset}. *)

val utilization : t -> horizon:Time.cycles -> float
(** Fraction of [horizon] the resource spent busy. *)

val reset : t -> unit

val force_state :
  t ->
  busy_until:Time.cycles ->
  busy_cycles:Time.cycles ->
  requests:int ->
  wait_cycles:Time.cycles ->
  unit
(** Overwrite all four arbitration counters at once — the checkpoint
    restore path. Not for use during simulation. Leaves {!latency} alone. *)
