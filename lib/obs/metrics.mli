(** A unified metrics registry: one flat, named namespace for the
    counters, gauges, histograms and windowed series the simulator's
    layers expose, snapshotted deterministically to JSON or CSV.

    Registration is cheap and sampling is lazy: pull sources are
    closures over live components, read exactly once when a snapshot is
    taken (after the run), so registering metrics costs the hot path
    nothing. Every consumer (engine, runtime, serve scheduler, DSE
    executor) registers into a registry the CLI creates per run and
    writes via [--metrics-out FILE].

    Snapshots are deterministic: rows sort by metric name, floats print
    with ["%.17g"] (the {!Gem_util.Jsonx} convention), and histograms
    expand into fixed [.count]/[.p50]/[.p95]/[.p99]/[.max] sub-rows. *)

type t

val create : unit -> t

val int : t -> string -> int -> unit
(** A constant sample recorded at registration time. *)

val float : t -> string -> float -> unit

val pull_int : t -> string -> (unit -> int) -> unit
(** A gauge: the closure is called once per snapshot. *)

val counter : t -> string -> Gem_util.Stats.Counter.t
(** Creates, registers and returns a named push counter. *)

val histogram : t -> string -> Gem_util.Stats.Histogram.t -> unit
(** Snapshots as [.count]/[.p50]/[.p95]/[.p99]/[.max] sub-rows. *)

val series : t -> string -> Gem_util.Stats.Series.t -> unit
(** Snapshots as [(window_start, mean)] pairs under a separate
    ["series"] section (or long-format CSV rows). *)

val series_total : t -> string -> Gem_util.Stats.Series.t -> unit
(** Like {!series} but snapshots window {e sums} instead of means —
    occupancy/burn totals rather than per-sample averages. *)

val mem : t -> string -> bool
val size : t -> int

val to_json : t -> Gem_util.Jsonx.t
(** [{ "schema": 1, "scalars": {...}, "series": {...} }], rows sorted by
    name. *)

val to_csv : t -> string
(** Long format: [metric,time,value] — scalars with an empty time
    column, series one row per window. *)

val write_file : t -> string -> unit
(** CSV when [path] ends in [.csv], pretty JSON otherwise.

    Raises [Invalid_argument] on duplicate metric names at registration,
    not here: a collision is a programming error, caught early. *)
