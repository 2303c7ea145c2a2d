(** Trace collection and export: a streaming Chrome Trace Event writer and
    a text report.

    An [Export.t] is an engine sink that drives a {!Span} recorder (the
    network > layer > kernel > command tree) and keeps nothing that grows
    with run length except one row per layer:

    - The Chrome Trace Event JSON, loadable in Perfetto
      ({:https://ui.perfetto.dev}) or [chrome://tracing], streams to its
      destination as the run goes. One process lane per core (shared
      memory-system components form a ["soc"] lane) and one thread track
      per component: every component registered at {!attach} gets its
      track metadata up front, in {!Engine.components} order, and any
      other at first use. Async kernel, command, DMA and request spans
      write their ["b"] half at open and their ["e"] half at close (they
      overlap their siblings, which sync slices cannot express); network
      and layer spans write one X slice at close; faults write an instant
      as they happen. {!finalize} adds the counter tracks — utilization,
      outstanding occupancy and transferred bytes per 65536-cycle window,
      a few floats per window and component — and closes the array.
      Timestamps are cycle numbers presented as microseconds. A
      deterministic run writes a byte-identical file every time.

    - {!report} renders a plain-text hierarchical profile: per-layer
      breakdown (cycles, share of total, kernels, command count) plus a
      per-component queue-latency table (p50/p95/p99/max) read from
      {!Engine.latency}.

    Attaching a collector never changes simulated timing — events carry
    timestamps already observed by the clock — so traced runs report
    cycle counts identical to quiet runs. *)

type t

val attach : ?chrome:[ `Memory | `File of string | `Off ] -> Engine.t -> t
(** Registers the collector as a sink on [engine] (making it
    {!Engine.live}) and writes the Chrome array opener and the registered
    tracks' metadata to [chrome]:
    - [`File path] streams into a freshly opened file, which {!finalize}
      closes;
    - [`Off] encodes no Chrome record at all, for a run that wants only
      the {!report};
    - [`Memory], the default, streams into a buffer that {!chrome_string}
      and {!write_chrome_file} read. For tests and short runs; the
      default is kept for the benchmark harness ([perfbench/workloads.ml]),
      which traces one request with [attach e]. *)

val finalize : t -> unit
(** Force-closes any still-open spans at the engine clock
    ({!Engine.now}), writes the counter tracks and the array closer, and
    releases the output. Call once after the run, or when a trap aborts
    it: the file then still loads, with every span ended at the abort
    horizon. Idempotent; events arriving after it are ignored. *)

val report : t -> string
(** The plain-text hierarchical profile. Ends with a ["span anomalies"]
    line when closes were orphaned or forced. Call after {!finalize}. *)

val events_written : t -> int
(** Chrome records written so far (0 for [`Off]). *)

val chrome_string : t -> string
(** {!finalize}, then the whole [`Memory] trace. Raises
    [Invalid_argument] for any other destination. *)

val write_chrome_file : t -> string -> unit
(** {!finalize}, then writes the [`Memory] trace to a file. Raises
    [Invalid_argument] for any other destination. Kept for the benchmark
    harness. *)

val recorder : t -> Span.t
(** The span recorder, for its counts. Kept for the benchmark harness,
    which reads {!Span.count}. *)
