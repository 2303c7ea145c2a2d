(** Deterministic checkpoint/restore for long simulations.

    A checkpoint captures the complete mutable state of a run at a fenced
    layer boundary — the {!Gem_sim.Engine} (clock, resource occupancy,
    fault tallies), the whole SoC (scratchpad/accumulator,
    caches, DRAM and main-memory contents, TLBs, page tables, armed
    injection plans with their RNG cursors), and the runtime's progress
    (completed layers and their records). The golden property, gated in
    CI: a run restored from any checkpoint finishes with byte-identical
    cycle counts, profile tables and event streams to the uninterrupted
    run.

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

(* --- resilient run driver ---------------------------------------------------- *)

type outcome = {
  o_result : Gem_sw.Runtime.result;
  o_checkpoints : int;  (** snapshots taken across all attempts *)
  o_replays : int;  (** recovery replays performed (Resume_checkpoint) *)
  o_resumed_at : int option;
      (** the layer index execution resumed from, when [restore] was given *)
}

val run :
  ?policy:Gem_sw.Runtime.policy ->
  ?watchdog:int ->
  ?inject:int * float ->
  ?checkpoint_every:int ->
  ?checkpoint_out:string ->
  ?restore:checkpoint ->
  ?max_replays:int ->
  config:Gem_soc.Soc_config.t ->
  core:int ->
  Gem_dnn.Layer.model ->
  mode:Gem_sw.Runtime.mode ->
  outcome
(** A {!Gem_sw.Runtime.run} with crash-safety around it. The SoC is
    always built fresh from [config]; tensor allocation is deterministic,
    so a restored run recomputes the interrupted run's addresses before
    the snapshot state is overlaid.

    [inject = (seed, rate)] arms deterministic fault injection on a fresh
    run (a restored one re-arms from the snapshot's RNG cursors, so the
    remaining fault trace is exactly the uninterrupted run's suffix).

    [checkpoint_every = n] snapshots after every [n]-th layer (absolute
    layer index, so resumed runs checkpoint at the same boundaries);
    [checkpoint_out] additionally persists each snapshot to disk.

    [restore] resumes from a checkpoint (shape-checked against [config],
    model and mode — raises [Invalid_argument] on a mismatch).

    Under [policy = Resume_checkpoint], a trap triggers a replay from the
    most recent snapshot (or the run's starting state) with the injection
    plan re-seeded per attempt — replaying the exact cursors would trip
    the identical fault forever — up to [max_replays] (default 3) times,
    after which the trap propagates. *)
