(** The analytic execution backend: a closed-form latency estimator over
    the same lowering ({!Lower.plan} / {!Schedule.t}) the cycle-accurate
    backend executes.

    Per kernel the estimator walks the outer tile grid — never the
    per-row command stream — advancing issue/load/execute/store cursors
    with aggregate occupancies: mesh fill+drain per DIM-block (WS/OS),
    DMA bytes over the bus with compute/DMA overlap bounded by the ROB
    window, shared L2-port / DRAM bandwidth floors scaled by core count,
    and a TLB term (private / shared / walk) classified from tile
    footprints against TLB reach. Cost is O(outer tiles) per kernel:
    microseconds where the event-driven engine takes seconds.

    Estimates are approximate by design; the cross-validation harness
    ({!Gem_dse.Xval}) gates the per-network error against a committed
    budget in CI. *)

val run : Backend.request -> Runtime.result array
(** One result per job, in job order, with the cycle backend's
    contracts: [r_layers] lists the model's layers in execution order
    with the classes {!Gem_dnn.Layer.class_of} assigns; [r_total_cycles]
    is the fenced finish horizon; [r_faults] records policy-handled traps
    in program order; [Abort] re-raises. *)

(** {1 Estimator detail}

    Everything [run] computes plus the model-internal tallies the DSE
    layer surfaces in {!Gem_dse.Outcome} (the cycle backend gets these
    from engine observers; the analytic backend estimates them). *)

type detail = {
  d_result : Runtime.result;
  d_tlb_requests : int;  (** estimated TLB lookups (DMA rows) *)
  d_tlb_walks : int;  (** estimated page-table walks *)
  d_tlb_shared : int;  (** estimated shared-TLB hits *)
  d_mesh_busy : int;  (** accumulated mesh occupancy, cycles *)
  d_ld_bytes : int;  (** DMA bytes loaded *)
  d_st_bytes : int;  (** DMA bytes stored *)
}

val estimate : Backend.request -> detail array

val estimate_core :
  Gem_soc.Soc_config.t ->
  core:int ->
  cores:int ->
  Gem_dnn.Layer.model ->
  mode:Lower.mode ->
  policy:Runtime.policy ->
  watchdog:int option ->
  detail
(** Estimate one job. [cores] is the contention factor applied to the
    shared L2-port / DRAM bandwidth floors (number of concurrently
    active jobs, not the SoC's core count). *)

(** {1 Schedule introspection} *)

type mm_counts = {
  mc_configs : int;
  mc_bias_mvins : int;
  mc_a_mvins : int;
  mc_b_mvins : int;
  mc_preloads : int;
  mc_computes : int;
  mc_mvouts : int;
}

val matmul_command_counts : Gemmini.Params.t -> Lower.matmul_shape -> mm_counts
(** Exact per-opcode command counts of one {!Kernels.matmul_steps}
    invocation, derived from the schedule alone. The backend-seam
    conformance test diffs these against the emitted instruction stream,
    proving both backends price the same program. *)
