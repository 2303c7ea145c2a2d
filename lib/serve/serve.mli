(** Serving-scenario driver: ties the arrival generator, admission queue,
    scheduler and SLO accounting together over one SoC configuration.

    On the {!Gem_sw.Backend.Cycle} backend the requests execute on the
    real multi-core SoC — batches on different cores contend for the
    shared L2 port and DRAM bandwidth, so tail latency under load is
    emergent. On {!Gem_sw.Backend.Analytic} the same admission queue and
    core-claiming discipline run as a pure event loop over a closed-form
    per-request service time, which makes dense throughput-vs-latency
    rate sweeps cheap.

    Everything is deterministic: equal scenarios (including the seed)
    produce byte-identical reports, which CI gates. *)

type scenario = {
  sv_model : string;  (** {!Gem_dnn.Model_zoo} name *)
  sv_scale : int;
  sv_soc : Gem_soc.Soc_config.t;
      (** the full chip: cores, shared L2, DRAM channel *)
  sv_backend : Gem_sw.Backend.kind;
  sv_mode : Gem_sw.Runtime.mode;
  sv_arrival : Arrival.spec;
  sv_seed : int;
  sv_batch : Batch.policy;
  sv_slos_ms : float list;
  sv_duration_ms : float;  (** arrival-window length *)
  sv_warmup : bool;
      (** run one untimed inference per core before the measured window
          (cycle backend only), so weight-load cold-start cost is not
          charged to the first requests *)
}

val config_for : cores:int -> Gemmini.Params.t -> Gem_soc.Soc_config.t
(** [cores] copies of the default core carrying the given accelerator, on
    the default shared memory system. *)

val cores : scenario -> int

val default : scenario
(** mobilenetv2 at scale 16 on 2 default cores: Poisson 2000 req/s, seed
    42, [fixed:4] batching, 5 ms / 10 ms SLOs over a 5 ms window, warmed
    up, cycle backend. *)

type result = {
  sr_scenario : scenario;
  sr_report : Slo.report;
  sr_completions : Slo.completion list;  (** sorted by request id *)
  sr_dispatches : (int * int list) list;  (** dispatch order *)
  sr_comp_util : (string * float) list;
      (** per-component busy fraction of the run horizon (cycle backend:
          every engine component; analytic: per-core mesh estimate) *)
  sr_comp_wait : (string * int) list;  (** cycle backend only *)
  sr_comp_p95 : (string * float) list;
      (** per-component p95 queue latency (cycle backend only) *)
}

val run :
  ?hist:Gem_util.Stats.Histogram.t ->
  ?attach:(Gem_soc.Soc.t -> unit) ->
  ?warm_in:string ->
  ?warm_out:string ->
  ?domains:int ->
  scenario ->
  result
(** Runs the scenario. [hist] is passed to {!Slo.analyze} (reset and
    reused). [attach] runs after SoC creation and before any simulation —
    the hook for a sink (a Chrome trace); cycle backend only. Without it
    the run is quiet: {!Gem_sim.Engine.live} stays false.

    Warm start (cycle backend only): [warm_out] saves a
    {!Gem_persist.Persist} envelope of the post-warmup SoC snapshot;
    [warm_in] restores one saved by an identical (model, scale, cores)
    scenario instead of re-running the warmup, and the arrival timeline
    is rebased past the restored finish horizon. Raises
    [Invalid_argument] on an unknown model, an SLO target given twice
    (two targets that print alike, such as [5] and [5.0]), a
    warm-envelope mismatch, a warm snapshot that does not fit this SoC,
    or warm flags on the analytic backend.

    [domains] is accepted and ignored: the SoC has one sequential
    driver. Kept only because the frozen benchmark harness
    ([perfbench/workloads.ml]) passes it. *)

val register_metrics : Gem_obs.Metrics.t -> result -> unit
(** Registers the run's serving metrics: headline figures
    ([serve.offered]/[completed]/[throughput_rps]), per-SLO attainment,
    per-core and merged latency histograms, per-SLO burn-rate series
    (fraction of completions per 1 ms window missing the SLO) and
    per-core occupancy series (busy window share). Works on both
    backends — everything derives from the completion list. *)
