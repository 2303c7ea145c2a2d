(** Sweep specifications: named axes over a base point.

    An axis is an ordered list of labeled point transformers; a sweep is
    either an explicit point list or the cartesian product of axes applied
    to a base point, first axis outermost (slowest-varying) — the same
    nesting order as the hand-written [List.concat_map] loops the
    experiments used before. *)

type axis = {
  axis_name : string;
  axis_values : (string * (Point.t -> Point.t)) list;
      (** (value label, transformer) in sweep order *)
}

val axis : string -> (string * (Point.t -> Point.t)) list -> axis

val ints : string -> (int -> Point.t -> Point.t) -> int list -> axis
(** Convenience: integer-valued axis labeled with the integers. *)

val backends : ?kinds:Gem_sw.Backend.kind list -> unit -> axis
(** Execution-backend axis (default: every registered backend). Each
    value re-prices the same design points with a different backend;
    cache entries stay distinct because the backend is part of the point
    hash. *)

val cores : int list -> axis
(** SoC-size axis: replicates the base point's first core config [n]
    times on the same shared memory system, so the serving sweeps span
    single- to many-core chips. *)

val serve_rates : float list -> axis
(** Serving arrival-rate axis (Poisson, requests/second): installs
    [poisson:R] into the point's serving spec (starting from
    {!Point.serve_or_default}), labeled ["%g"]. The throughput-vs-latency
    curve axis. *)

val cartesian : ?sep:string -> base:Point.t -> axis list -> Point.t array
(** Product of all axes over [base]; each point's label is the value
    labels joined by [sep] (default ["/"]), appended to the base label
    when non-empty. *)

val points : Point.t list -> Point.t array
(** An explicit point list as a sweep. *)
