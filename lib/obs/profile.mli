(** Self-profiler: where does the {e simulator's own} host time go?

    PR 4 made the simulated machine observable; this module makes the
    simulator observable. Probed regions (controller dispatch, resource
    acquisition, event construction, DMA stepping, lowering, serve
    scheduling, DSE evaluation) attribute wall-clock seconds and
    allocated bytes to named phases, ranked hottest-first — the evidence
    ROADMAP item 3 ("flatten the run hot path") needs.

    Probe sites guard on [!on] before calling {!enter}/{!leave}, so the
    disabled cost is one branch on a bool ref: no allocation, no clock
    read. Enabled or not, the profiler reads only host wall time and GC
    counters — simulated cycle counts are unaffected (checked by
    test_soc.ml and a CI byte gate).

    Exclusive ("self") time follows the standard stack discipline: a
    phase's self time excludes time spent in nested probed phases.
    State is per-Domain ({!Domain.DLS}) and merged at reporting time, so
    DSE worker pools profile safely. *)

val on : bool ref
(** The hot-path guard. Probe sites write
    [if !Profile.on then Profile.enter Profile.dispatch]. Mutate via
    {!enable}/{!disable}. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all accumulated phases and anomaly counters in every domain's
    state (open frames are dropped). Call between independent runs. *)

(** {2 Canonical phase names} *)

val dispatch : string
(** SoC op dispatch: the per-op execute loop. *)

val acquire : string
(** Engine resource acquisition/occupation (arbitration + counters). *)

val event : string
(** Event delivery: the sink fan-out in {e Engine.emit}. *)

val dma : string
(** DMA burst stepping (per-row translate/acquire walk). *)

val lowering : string
(** Runtime network-to-ops lowering. *)

val schedule : string
(** Serving-scheduler decision loop. *)

val dse : string
(** One DSE design-point evaluation. *)

(** {2 Probes} *)

val enter : string -> unit
(** Open a frame for [name]. Callers must guard with [!on]. *)

val leave : string -> unit
(** Close the innermost open frame named [name]. Frames opened inside it
    that were unwound by an exception are force-popped (still
    attributed, counted as forced); a leave with no matching open frame
    counts as an orphan and is otherwise ignored. *)

val record : string -> (unit -> 'a) -> 'a
(** [record name f] runs [f] inside an exception-safe probe when
    enabled, or just runs [f] when disabled. For coarse phases (not the
    per-op hot path, where the closure would allocate). *)

(** {2 Reporting} *)

type phase = {
  ph_name : string;
  ph_calls : int;
  ph_self_s : float;  (** exclusive wall seconds *)
  ph_total_s : float;  (** inclusive wall seconds *)
  ph_alloc_bytes : float;  (** exclusive allocated bytes *)
}

val phases : unit -> phase list
(** Merged across all domains, ranked by self time descending (name
    breaks ties, so the order is stable). *)

val anomalies : unit -> int * int
(** [(orphan_leaves, forced_leaves)] summed across domains. *)

val attributed_s : phase list -> float
(** Sum of self times: wall seconds the profiler can account for. *)

val coverage_pct : total_s:float -> phase list -> float
(** Attributed share of [total_s] (the caller-measured run wall). *)

val to_json : total_s:float -> unit -> Gem_util.Jsonx.t
(** Ranked phase table plus coverage and anomaly counts. Wall times are
    inherently nondeterministic; this output is never byte-gated. *)

val render : total_s:float -> unit -> string
(** The same table as text, for terminals. *)

val write_file : total_s:float -> string -> unit
(** Pretty-printed {!to_json} to [path]. *)
