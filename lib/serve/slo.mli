(** Per-request latency accounting and SLO attainment.

    Latency is end-to-end: completion cycle minus {e arrival} cycle, so
    queueing delay under load is part of the number (the quantity an SLO
    is written against), not just on-accelerator service time. *)

type completion = {
  c_id : int;
  c_core : int;
  c_arrival : Gem_sim.Time.cycles;
  c_start : Gem_sim.Time.cycles;  (** first cycle of service *)
  c_finish : Gem_sim.Time.cycles;
}

type report = {
  rp_offered : int;  (** requests in the arrival stream *)
  rp_completed : int;
  rp_horizon : Gem_sim.Time.cycles;
      (** last completion relative to the serving origin (0 if none) *)
  rp_latency : Gem_util.Stats.Histogram.summary;  (** in cycles *)
  rp_throughput_rps : float;
      (** completed requests per second at 1 GHz over the horizon *)
  rp_attainment : (float * float) list;
      (** per requested SLO: (slo in ms, fraction of {e offered} requests
          finished within it) — an uncompleted request counts as missed;
          NaN (not available) when no request was offered *)
  rp_per_core : (int * int) list;
      (** completions per core, ascending core id, all cores present *)
}

val ms_of_cycles : Gem_sim.Time.cycles -> float
(** At the 1 GHz convention: cycles / 1e6. *)

val in_cycle_range : float -> bool
(** Whether a cycle count truncates to an [int] without wrapping: below
    2^62 in magnitude (false for NaN and infinities). *)

val cycles_of_ms : float -> Gem_sim.Time.cycles
(** At the 1 GHz convention: ms * 1e6, truncated. Raises
    [Invalid_argument] when the count does not fit an [int] (beyond about
    4.6e12 ms either way, or NaN) rather than wrapping. *)

val analyze :
  ?hist:Gem_util.Stats.Histogram.t ->
  origin:Gem_sim.Time.cycles ->
  offered:int ->
  cores:int ->
  slos_ms:float list ->
  completion list ->
  report
(** Builds the report. [origin] is the serving timeline origin (non-zero
    for warm-started runs whose completions carry absolute cycles).

    SLO attainment is counted exactly from the completion list; only the
    percentile summary goes through the histogram. When [hist] is given
    it is {!Gem_util.Stats.Histogram.reset} and reused (its bucket range
    must already suit the data); otherwise a fresh histogram sized to the
    observed maximum is used, so equal completions yield an equal report. *)
