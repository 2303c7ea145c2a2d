(** Trace collection and export: Chrome Trace Event JSON and text reports.

    An [Export.t] is an engine sink that aggregates the event stream into
    - a {!Span.t} recorder (the network > layer > kernel > command tree),
    - per-component queue-latency {e histograms} (request-to-service-start
      cycles of every [Acquire] event),
    - windowed {e time series}: busy occupancy, outstanding backlog and
      transferred bytes per fixed-width window of simulated time.

    Two export formats:

    - {!write_chrome} emits Chrome Trace Event JSON, loadable in Perfetto
      ({:https://ui.perfetto.dev}) or [chrome://tracing]. One process lane
      per core (shared memory-system components form a ["soc"] lane), one
      thread track per registered component, X slices for network/layer
      spans, async b/e pairs for kernels, ISA commands and DMA bursts
      (these overlap their siblings, which sync slices cannot express),
      and counter tracks for windowed utilization, outstanding occupancy
      and transferred bytes. Timestamps are cycle numbers presented as
      microseconds. Output is deterministic byte-for-byte: fixed track
      order, insertion-order spans, and {!Gem_util.Jsonx} printing. The
      record encoder is the one {!Streaming} uses.

    - {!report} renders a plain-text hierarchical profile: per-layer
      breakdown (cycles, share of total, kernels, command count) plus a
      per-component queue-latency table (p50/p95/p99/max).

    Attaching a collector never changes simulated timing — events carry
    timestamps already observed by the clock — so traced runs report
    cycle counts identical to quiet runs. *)

type t

val attach :
  ?window:int ->
  ?lat_range:float ->
  ?lat_buckets:int ->
  ?spans:bool ->
  ?acquire_spans:(string -> bool) ->
  Engine.t ->
  t
(** Registers the collector as a sink on [engine] (making it
    {!Engine.live}) and returns it.

    [window] (default 65536) is the time-series bucket width in cycles.
    [lat_range]/[lat_buckets] (default 4096.0 / 64) shape the queue-latency
    histograms; samples beyond the range clamp into the last bucket while
    the recorded maximum stays exact. [spans:false] drops span and acquire
    events (histograms and series only — what a DSE sweep wants).
    [acquire_spans] is passed to {!Span.create}. *)

val recorder : t -> Span.t
val engine : t -> Engine.t

val finalize : t -> unit
(** {!Span.finalize} at the engine clock ({!Engine.now}). Call after the
    run, before exporting. Idempotent in effect: already-closed spans are
    untouched. *)

val latency : t -> (string * int * Gem_util.Stats.Histogram.summary) list
(** Per-component [(name, acquires, latency summary)] in track order. *)

val write_chrome : t -> (string -> unit) -> unit
(** Streams the JSON through the callback (called many times with small
    chunks); full-model traces reach hundreds of MB, so no intermediate
    whole-file string is built. *)

val chrome_string : t -> string
(** {!write_chrome} into a buffer. For tests and small runs. *)

val write_chrome_file : t -> string -> unit
(** {!write_chrome} into a file (buffered). *)

val report : t -> string
(** The plain-text hierarchical profile. Ends with a ["span anomalies"]
    line when closes were orphaned or forced. *)

(** Constant-memory Chrome-trace writer for arbitrarily long runs.

    An engine sink that drives a non-retaining {!Span} recorder and
    writes each span as it opens and closes instead of buffering the
    whole span tree: async spans (kernel, command, dma, request) write
    their ["b"] half at open and ["e"] half at close; sync slices
    (network/layer) are written at close, so live memory is bounded by
    span nesting depth, not run length. This is what [serve --trace-out]
    uses.

    It shares the batch exporter's span stack and record encoder, so both
    write the same span records and tracks for one run. Differences:
    track metadata appears at first use rather than up front, and there
    are no counter tracks or queue-latency aggregates — attach a batch
    collector alongside when those are needed. A deterministic run
    streams a byte-identical file every time. *)
module Streaming : sig
  type t

  val attach : Engine.t -> out:(string -> unit) -> t
  (** Writes the array opener immediately and registers the sink.
      The engine becomes {!Engine.live}. *)

  val attach_file : Engine.t -> string -> t
  (** {!attach} to a freshly opened file; {!finish} closes it. *)

  val finish : t -> unit
  (** Force-closes any still-open spans at the engine clock, writes
      the array closer, and releases the output. Idempotent; events
      arriving after [finish] are ignored. *)

  val events_written : t -> int
  val orphan_closes : t -> int
  val forced_closes : t -> int
end
