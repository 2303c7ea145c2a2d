(** The model runtime: Gemmini's "push-button" software flow, one level
    above the kernel library.

    Given a {!Gem_dnn.Layer.model} and an elaborated SoC, the runtime
    allocates virtual memory for every tensor (through the core's page
    table), lowers each layer as {!Lower.plan} decides (onto the
    accelerator kernels, or onto the host CPU), placing the kernels over
    the tensors' addresses, interposes per-layer fences and bookkeeping
    markers, and executes the resulting command stream on the simulated
    SoC. Each inference is planned once, never per layer instance.

    Two execution styles:
    - {b timing}: shape-only simulation of full networks (what every
      figure of the paper uses);
    - {b functional}: real int8 data flows through the DMA, scratchpad and
      cycle-accurate mesh; validated against {!reference_inference} in the
      integration tests. *)

type mode = Lower.mode =
  | Accel of { im2col_on_accel : bool }
  | Cpu_only  (** the Fig. 7 baseline: every layer in software *)

val mode_desc : mode -> string

(** What the runtime does when an accelerator command raises a
    {!Gem_sim.Fault.Trap}. *)
type policy =
  | Abort  (** record the fault and re-raise (default) *)
  | Retry_map
      (** page faults: map the page (host fault handler) and re-issue the
          command; DMA bus errors: re-issue; anything else aborts *)
  | Degrade
      (** fall back to the CPU kernel for the offending layer: charge the
          host the layer's software cost and drop its remaining
          accelerator ops *)
  | Resume_checkpoint
      (** record the fault and unwind; a checkpointing driver above the
          runtime ({!Gem_persist}) replays from the last snapshot *)

val policy_desc : policy -> string

type fault_record = {
  fr_fault : Gem_sim.Fault.t;
  fr_layer : string;  (** the layer executing when the trap fired *)
  fr_action : string;
      (** ["abort"], ["remap"], ["retry"], ["degrade"] or
          ["resume-checkpoint"] *)
}

type layer_record = {
  lr_name : string;
  lr_class : Gem_dnn.Layer.klass;
  lr_cycles : Gem_sim.Time.cycles;  (** wall time of this layer (fenced) *)
  lr_macs : int;
}

type result = {
  r_model : string;
  r_mode : string;
  r_core : int;
  r_total_cycles : Gem_sim.Time.cycles;
  r_layers : layer_record list;
  r_profile : Gem_sim.Engine.stat list;
      (** per-component engine statistics at the end of the run, in SoC
          registration order (L2 port, DRAM, then per-core components) *)
  r_faults : fault_record list;
      (** every trap the run's policy handled, in program order; empty on
          a clean run *)
}

val cycles_by_class :
  result -> (Gem_dnn.Layer.klass * Gem_sim.Time.cycles) list
(** Aggregated per-layer-class wall time (the Fig. 9 breakdown). *)

val register_metrics : Gem_obs.Metrics.t -> result -> unit
(** Registers [runtime.coreN.total_cycles]/[.layers]/[.faults] and the
    per-class cycle breakdown as constant samples. Backend-independent:
    call once per core result, after the run. *)

val plan_ops :
  Gem_soc.Soc.t ->
  Gem_soc.Soc.core ->
  Gem_dnn.Layer.model ->
  mode:mode ->
  records:layer_record list ref ->
  Kernels.op Seq.t
(** The unguarded command stream of one inference, as the ephemeral
    {!Gem_soc.Soc.op_seq} view for {!Gem_soc.Soc.run_program} and for
    consumers that inspect the stream: force each node once. Tensor
    allocation happens immediately; ops are lowered one tile step at a
    time as the stream is consumed. Compute runs appear as their
    commands. *)

(* Serving re-entry: one allocation, many inferences. *)

type session
(** A model pinned to one core with its tensors allocated exactly once.
    Each {!request_steps} inference re-executes the network over the same
    virtual addresses — weights stay resident, activation buffers are
    reused — so a serving run's address space and page tables do not grow
    with the request count. *)

val make_session :
  Gem_soc.Soc.t -> core:int -> Gem_dnn.Layer.model -> mode:mode -> session
(** Allocates the model's tensors on the core (deterministic bump
    allocation, exactly as {!run} would) and plans the model once; every
    {!request_steps} reuses both. *)

val session_core : session -> Gem_soc.Soc.core

val request_steps :
  session -> records:layer_record list ref -> Kernels.steps Seq.t
(** The pieces of one inference over the session's tensors, including
    the network/layer span markers and per-layer fences, for a
    {!Gem_soc.Soc.program} (or a larger sequence of pieces) to expand.
    The first piece is a zero-cost marker rebasing per-layer cycle
    accounting on the core's finish horizon at dispatch, so [records]
    report cycles relative to the request's own start. Unguarded: traps
    propagate ({!Abort} semantics), and serving drivers decide recovery
    above this level. *)

val run :
  ?policy:policy ->
  ?watchdog:int ->
  Gem_soc.Soc.t ->
  core:int ->
  Gem_dnn.Layer.model ->
  mode:mode ->
  result
(** Single-core inference (timing). [policy] (default {!Abort}) selects
    the trap-recovery behavior; [watchdog] bounds the cycles any single
    layer may spend before a [Watchdog_timeout] trap fires.

    When a trap escapes the policy, the still-open layer and network
    spans are closed at the abort horizon before the exception
    propagates, so observed aborts leave a well-formed span tree.

    The guarding is zero-cost: with the default policy a clean run is
    cycle-identical to older, unguarded runtimes. The run is a
    {!Gem_soc.Soc.program} on core [core] (other cores idle) executed by
    {!Gem_soc.Soc.run_parallel}, so lowering holds at most one tile
    step's ops and a quiet run allocates no per-op stream node. *)

val run_parallel :
  ?policy:policy ->
  ?watchdog:int ->
  ?prepare:(unit -> unit) ->
  ?start_layer:int ->
  ?resume:layer_record list * Gem_sim.Time.cycles ->
  ?on_layer:
    (layer:int -> records:layer_record list -> finish:Gem_sim.Time.cycles -> unit) ->
  Gem_soc.Soc.t ->
  (Gem_dnn.Layer.model * mode) array ->
  result array
(** One inference per core, job [i] on core [i], interleaved in simulated
    time (the Fig. 9 dual-core experiments). Each core gets its own
    recovery state under the shared [policy]. The same driver as {!run}:
    one guarded {!Gem_soc.Soc.program} per core, interleaved by
    {!Gem_soc.Soc.run_parallel}. A single job is exactly {!run} on core
    0.

    [prepare] runs once, after every job's tensor allocation but before
    the first command issues (e.g. to unmap pages for recovery tests, or
    to restore a snapshot — tensor allocation is deterministic, so a
    resumed run recomputes the interrupted run's addresses before
    [prepare] overlays its state).

    Checkpoint/restore hooks, applied to every job: [start_layer] skips
    execution (not allocation) of layers before it and suppresses the
    network span-open marker, which the interrupted run already emitted
    (emitting it again would open the span twice); [resume]
    [(records, last_finish)] seeds the salvaged per-layer records and the
    finish horizon the next layer's [lr_cycles] measures from; [on_layer]
    fires after each layer's fence. The SoC is quiesced there only when
    one job runs, so {!Gem_persist} snapshots there with a single job. *)

(* Functional execution (small models). *)

val run_functional :
  Gem_soc.Soc.t ->
  core:int ->
  Gem_dnn.Layer.model ->
  input:Gem_util.Tensor.t ->
  seed:int ->
  Gem_util.Tensor.t
(** Runs a real inference through the accelerator datapath: weights are
    generated deterministically from [seed], data moves through the DMA /
    scratchpad / mesh, and the unguarded program runs through
    {!Gem_soc.Soc.run_parallel} like every other run. Returns the final activation tensor (NHWC). The
    SoC must be functional. *)

val reference_inference :
  Gem_dnn.Layer.model ->
  input:Gem_util.Tensor.t ->
  seed:int ->
  Gem_util.Tensor.t
(** Pure-host golden model with the same weight generation and
    quantization; [run_functional] must match it bit-for-bit. *)
