(** Deterministic rendering of serving results: the text report the CLI
    prints (and CI diffs byte-for-byte) and a CSV row per scenario for
    throughput-vs-latency curves. *)

val render : Serve.result -> string
(** Multi-line human-readable report; ends with a newline. Equal results
    render to equal strings. *)

val csv_header : string
(** Column names, with a trailing newline. *)

val csv_row : Serve.result -> string
(** One CSV line (trailing newline). The SLO columns report the first
    SLO in the scenario's list ([0] / [nan] when none was requested, and
    [nan] attainment when no request was offered);
    utilization columns aggregate engine components by name suffix:
    mean over matching [*/mesh] and [*/dma] tracks, sum over matching
    wait counters. *)
