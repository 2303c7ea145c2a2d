(** Deterministic checkpoint/restore for long simulations, and the one
    run driver ({!run}) built around it.

    A checkpoint captures the complete mutable state of a run at a fenced
    layer boundary — the {!Gem_sim.Engine} (clock, resource occupancy,
    fault tallies), the whole SoC (scratchpad/accumulator,
    caches, DRAM and main-memory contents, TLBs, page tables, armed
    injection plans with their RNG cursors), and the runtime's progress
    (completed layers and their records). The golden property: a run
    restored from any checkpoint finishes with the uninterrupted run's
    cycle counts, per-layer records, engine profile and final SoC state
    (checked by the test suite on every zoo network; CI compares the
    CLI's report and metrics snapshot).

    On disk a checkpoint travels in a versioned envelope whose MD5
    checksum covers the canonical payload serialization, written
    atomically (temp file + rename): a crash mid-write leaves either the
    previous checkpoint or a temp file that {!load} rejects — never a
    half-written state that half-restores. *)

val format_version : string
(** Bump on any incompatible snapshot-layout change; {!load} rejects
    envelopes from other versions. *)

(* --- envelope ------------------------------------------------------------- *)

val save :
  path:string ->
  meta:(string * Gem_util.Jsonx.t) list ->
  payload:Gem_util.Jsonx.t ->
  unit
(** Atomically writes [{version, checksum, meta, payload}] to [path].
    [meta] is free-form description (model, layer, cycle) readable
    without deserializing the payload. Raises [Sys_error] on I/O
    failure. *)

val load :
  path:string ->
  ((string * Gem_util.Jsonx.t) list * Gem_util.Jsonx.t, string) result
(** Reads and verifies an envelope: parse failure (including a truncated
    write), a version mismatch, or a checksum mismatch all come back as
    [Error] with a human-readable reason. *)

(* --- run checkpoints -------------------------------------------------------- *)

type checkpoint = {
  ck_model : string;
  ck_mode : string;  (** {!Gem_sw.Runtime.mode_desc} of the run's mode *)
  ck_core : int;
  ck_next_layer : int;  (** first layer index not yet executed *)
  ck_last_finish : Gem_sim.Time.cycles;
  ck_records : Gem_sw.Runtime.layer_record list;  (** chronological *)
  ck_soc : Gem_util.Jsonx.t;  (** {!Gem_soc.Soc.snapshot} *)
}

val save_checkpoint : path:string -> checkpoint -> unit
val load_checkpoint : path:string -> (checkpoint, string) result

(* --- the run driver ------------------------------------------------------------ *)

type options = {
  backend : Gem_sw.Backend.kind;
  config : Gem_soc.Soc_config.t;
  jobs : (Gem_dnn.Layer.model * Gem_sw.Runtime.mode) array;
      (** one job per core, in core order *)
  policy : Gem_sw.Runtime.policy;
  watchdog : int option;
  inject : (int * float) option;  (** [(seed, rate)] *)
  checkpoint_every : int option;
  checkpoint_out : string option;
  restore : checkpoint option;
  max_replays : int;
}

val default : options
(** The cycle backend on {!Gem_soc.Soc_config.default} under [Abort], with
    no watchdog, injection or checkpoint and [max_replays = 3]; [jobs] is
    empty, so set it. *)

type outcome = {
  o_results : Gem_sw.Runtime.result array;  (** one per job, in job order *)
  o_checkpoints : int;  (** snapshots taken across all attempts *)
  o_replays : int;  (** recovery replays performed (Resume_checkpoint) *)
}

val run : ?attach:(Gem_soc.Soc.t -> unit) -> options -> outcome
(** The driver behind the CLI's [run] and every cycle-backend DSE point.
    The analytic backend prices the jobs ({!Gem_sw.Backend_analytic.run});
    the cycle backend builds the SoC from [config], calls [attach] on it
    before anything is allocated or simulated (trace collectors, TLB
    observers), and runs job [i] on core [i] through
    {!Gem_sw.Runtime.run_parallel}. A run
    with no checkpoint, restore or [Resume_checkpoint] policy is exactly
    that one call; the rest adds crash-safety around it.

    Tensor allocation is deterministic, so a restored run recomputes the
    interrupted run's addresses before the snapshot state is overlaid.

    [inject = (seed, rate)] arms deterministic fault injection on a fresh
    run (a restored one re-arms from the snapshot's RNG cursors, so the
    remaining fault trace is exactly the uninterrupted run's suffix).

    [checkpoint_every = n] snapshots after every [n]-th layer (absolute
    layer index, so resumed runs checkpoint at the same boundaries);
    [checkpoint_out] additionally persists each snapshot to disk.

    [restore] resumes from a checkpoint (shape-checked against [config],
    model and mode).

    Under [policy = Resume_checkpoint], a trap triggers a replay from the
    most recent snapshot (or the run's starting state) on a fresh SoC
    (passed to [attach] again) with the injection plan re-seeded per
    attempt — replaying the exact cursors would trip the identical fault
    forever — up to [max_replays] times, after which the trap propagates.

    Raises [Invalid_argument] before building anything when the options
    do not combine: no jobs or more jobs than cores; checkpoint, restore,
    [Resume_checkpoint] or injection on the analytic backend; checkpoint,
    restore or [Resume_checkpoint] with more than one job (a layer fence
    quiesces the SoC only when one core runs); a non-positive
    [checkpoint_every]; or a checkpoint of another model or mode. A
    checkpoint that does not fit the SoC raises it when it is restored. *)
