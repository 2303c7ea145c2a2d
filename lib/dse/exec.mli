(** The sweep executor: evaluates design points, fanning out over a
    [Domain]-based worker pool and memoizing through the persistent
    {!Cache}.

    Determinism contract: {!run} returns results in point-index order, not
    completion order, and each worker builds its own [Soc] — no simulator
    state is shared across points — so [~jobs:n] for any [n] produces
    results structurally equal to a serial run, and a warm-cache run
    reproduces a cold run bit-for-bit. *)

type run_result = {
  results : (Point.t * Outcome.t) array;  (** in input order *)
  simulated : int;  (** points evaluated this run *)
  cached : int;  (** points served from the cache *)
}

val evaluate : Point.t -> Outcome.t
(** Evaluate one point, bypassing pool and cache: always computes the
    synthesis estimate; when the point's [simulate] is set, builds a fresh
    SoC, runs one inference per core ([Runtime.run_parallel] when the SoC
    has several), and collects TLB/L2 statistics from core 0.

    Raises [Invalid_argument] on an unknown model name and lets simulator
    exceptions (e.g. {!Gem_sim.Fault.Trap}) propagate. *)

val default_jobs : unit -> int
(** [GEMMINI_DSE_JOBS] when set to a non-empty value ([0] means the
    domain count recommended for this machine), else 1 — serial, so clean
    runs stay byte-identical with no environment configured.

    Raises [Invalid_argument] naming the variable when its value is not a
    non-negative integer. *)

val default_cache : unit -> Cache.t option
(** A cache at [GEMMINI_DSE_CACHE] when that variable is set, else none. *)

val run : ?jobs:int -> ?cache:Cache.t option -> Point.t array -> run_result
(** [jobs] defaults to {!default_jobs}; [cache] to {!default_cache}.
    [jobs = 0] means [Domain.recommended_domain_count ()].

    Each point is looked up in the cache (a hit counts as [cached]); a
    miss is evaluated and stored (counted as [simulated]). A worker
    exception is re-raised after the pool drains, lowest point index
    first; with [jobs = 1] the sweep stops at the first failing point.

    Resumable: every outcome is stored the moment it completes, so after
    a killed or failed sweep a rerun over the same cache re-simulates only
    the missing points, and its report is byte-identical to an
    uninterrupted run's. *)

val register_metrics : Gem_obs.Metrics.t -> run_result -> unit
(** Registers the sweep tallies ([dse.points], [dse.simulated],
    [dse.cached]) as constant samples. Call after {!run} returns — every
    value is settled, no worker is still writing. *)
