(** The simulation engine: one shared substrate for timing and
    observability.

    An [Engine.t] is the simulation context every layer of the stack hangs
    off. It owns
    - the {e clock}: a high-water mark of simulated time observed across
      all components;
    - a named {e resource registry}: every bus, DRAM channel, cache port,
      scratchpad bank, page-table walker and mesh pipeline registers
      itself at construction, either as an engine-{e owned}
      {!Resource.t} (serially-occupied, timing-bearing) or as a {e probe}
      (a pure statistics sampler for components whose timing is charged
      elsewhere);
    - a {e typed event stream}: components emit structured {!event}s at
      their boundaries instead of ad-hoc string traces, fanned out to
      pluggable sinks (span recorders, trace writers, collectors);
    - {e metric sinks}: per-component busy/wait/utilization counters
      aggregated on demand into {!stat} rows or a rendered table (the
      "where did the cycles go" view behind [gemmini_cli --profile]).

    Components that are constructed without an engine get a fresh private
    one, so unit tests of a single layer need no ceremony; an SoC creates
    one engine and threads it through every core, memory and TLB so that
    contention and attribution are consistent across the whole stack. *)

type t

(** What a registered component is, for grouping and display. *)
type kind =
  | Bus
  | Dram
  | Cache
  | Scratchpad
  | Tlb
  | Ptw
  | Dma
  | Pipeline
  | Host

val kind_label : kind -> string

(** Typed events emitted at component boundaries. *)
type event =
  | Acquire of {
      component : string;
      time : Time.cycles;  (** when the request was made *)
      start : Time.cycles;  (** when service began (>= time if queued) *)
      finish : Time.cycles;  (** when service completed *)
    }
  | Transfer of {
      component : string;
      time : Time.cycles;
      dir : [ `Read | `Write ];
      bytes : int;
    }
  | Translate of { component : string; time : Time.cycles; level : string }
  | Note of { component : string; time : Time.cycles; detail : string }
  | Fault of {
      component : string;
      time : Time.cycles;
      kind : string;  (** {!Fault.cause_label} of the cause *)
      detail : string;  (** {!Fault.cause_detail} of the cause *)
    }
  | Span_open of {
      component : string;  (** track the span renders on *)
      time : Time.cycles;  (** begin stamp *)
      name : string;  (** e.g. a layer name or ISA mnemonic *)
      cat : string;  (** hierarchy level: network/layer/kernel/command/... *)
      args : (string * string) list;  (** free-form attributes *)
    }
  | Span_close of { component : string; time : Time.cycles; name : string }
      (** Closes the innermost open span with this [name] on [component]'s
          scope; see {!Span} for the stack discipline. *)

val event_time : event -> Time.cycles

(** A probe's answer when sampled. *)
type sample = {
  p_requests : int;
  p_busy : Time.cycles;
  p_wait : Time.cycles;
  p_note : string;
}

(** One aggregated metric row. *)
type stat = {
  stat_name : string;
  stat_kind : kind;
  stat_requests : int;
  stat_busy : Time.cycles;
  stat_wait : Time.cycles;
  stat_faults : int;  (** traps attributed to this component *)
  stat_note : string;
}

val create : unit -> t
(** A fresh context with no sinks attached. *)

(* --- registry ---------------------------------------------------------- *)

val resource : ?note:(unit -> string) -> t -> kind:kind -> name:string -> Resource.t
(** Registers and returns an engine-owned resource. Registered names are
    unique: a colliding [name] is deterministically suffixed ([name#2],
    [name#3], ...). [note] supplies free-form detail for reports. *)

val register_probe : t -> kind:kind -> name:string -> sample:(unit -> sample) -> unit
(** Registers a statistics-only component. Probes appear in {!stats} and
    the utilization table but own no timing state; {!reset} does not touch
    the external state they sample. *)

val components : t -> (string * kind) list
(** Registered components in registration order. *)

(* --- timing ------------------------------------------------------------ *)

val acquire :
  t -> Resource.t -> now:Time.cycles -> occupancy:Time.cycles -> Time.cycles
(** {!Resource.acquire} plus clock advance and an [Acquire] event. This is
    the one-call path for requests whose occupancy is known up front. *)

val next_free : t -> Resource.t -> now:Time.cycles -> Time.cycles
(** When a request arriving at [now] could start service. Pure query: no
    counters move. Pair with {!occupy} for requests whose duration is only
    known after downstream simulation (e.g. a DMA burst). *)

val occupy :
  t -> Resource.t -> now:Time.cycles -> start:Time.cycles -> until:Time.cycles -> unit
(** Commits a reservation computed via {!next_free}: charges
    [start - now] wait and [until - start] busy cycles, advances the
    resource and the clock, and emits an [Acquire] event. *)

(* --- clock ------------------------------------------------------------- *)

val now : t -> Time.cycles
(** High-water mark of simulated time observed by the engine. *)

val observe : t -> Time.cycles -> unit
(** Advances the clock to [max (now t) time]. Inside a parallel section
    (see {!enter_parallel}) the calling domain advances only its own
    clock slot; the maxima are folded back into the clock at
    {!exit_parallel}. *)

(* --- parallel sections -------------------------------------------------- *)

val enter_parallel : t -> slots:int -> unit
(** Opens a parallel section with [slots] per-domain clock slots, each
    seeded with the current clock. While open, {!observe} (and therefore
    {!acquire}/{!occupy}) advances the calling domain's slot instead of
    the shared clock, so worker domains never race on it. The engine
    must be quiet ([live t = false]) — the caller guarantees no events
    are emitted from workers. *)

val exit_parallel : t -> unit
(** Closes the section: folds every slot's high-water mark back into the
    clock. Must be called from the coordinating domain after all workers
    have joined. *)

val set_domain_slot : int -> unit
(** Pins the calling domain to clock slot [i] of the open parallel
    section. The coordinating domain keeps the default slot 0. *)

(* --- events ------------------------------------------------------------ *)

val live : t -> bool
(** True when sinks are attached, so emitted events go somewhere;
    components use this to skip event construction on the hot path. A
    quiet run must allocate no event records at all. *)

val emit : t -> event -> unit
(** Feeds every sink, in registration order. Advances the clock. *)

val add_sink : t -> (event -> unit) -> unit
(** Sinks see every event from registration on. *)

val dropped_events : t -> int
(** Always 0: no sink drops events, each sees every event at emission.
    Kept only because the frozen benchmark harness
    ([perfbench/workloads.ml]) reads it. *)

(* --- faults ------------------------------------------------------------ *)

val trap : t -> Fault.t -> 'a
(** Records the fault against its component, advances the clock to the
    fault cycle, emits a [Fault] event when the engine is {!live}, and
    raises {!Fault.Trap}. The single reporting path for engine-attached
    components. *)

val faults : t -> component:string -> int
(** Traps recorded against [component] (0 for unknown names). *)

val total_faults : t -> int

(* --- metrics ----------------------------------------------------------- *)

val stats : t -> stat list
(** One row per registered component, in registration order. *)

val utilization_table : t -> ?horizon:Time.cycles -> unit -> Gem_util.Table.t
(** Per-component utilization/wait table ready for printing. [horizon]
    defaults to the engine clock. *)

val register_metrics : ?prefix:string -> t -> Gem_obs.Metrics.t -> unit
(** Registers pull gauges for the clock, the fault total and
    per-component requests/busy/wait under [prefix] (default
    ["engine."]). Sampling happens at registry-snapshot time, never on
    the simulation path. *)

val reset : t -> unit
(** Rewind the clock, zero the fault counters and reset every owned
    resource. Registrations, sinks and probe targets survive. *)

(* --- snapshot / restore ------------------------------------------------- *)

val snapshot : t -> Gem_util.Jsonx.t
(** The engine's full mutable state: clock, every owned resource's
    arbitration counters (keyed by unique registered name) and fault
    attribution. Probes are excluded — the components they sample serialize their own state. *)

val restore : t -> Gem_util.Jsonx.t -> unit
(** Overwrites the engine's mutable state from a {!snapshot}. The target
    engine must carry the same resource registry (same names, elaborated
    from the same SoC config); any mismatch raises
    {!Gem_util.Snap.Malformed}. Attached sinks are an observer setting and
    are left untouched. *)
