(** Gemmini's accelerator-side address-translation system: optional
    read/write filter registers in front of a private TLB, backed by a
    shared L2 TLB, backed by a single page-table walker.

    This is the structure co-designed in the paper's Section V-A:
    - the {e filter registers} cache the last translation used by the read
      stream and the write stream separately; a filter hit costs 0 cycles
      and avoids read/write contention on the TLB ports;
    - the {e private TLB} is small (4–64 entries) with a several-cycle hit
      latency;
    - the {e shared L2 TLB} (0–512 entries) is slower but cheaper than a
      page walk;
    - walks go to the shared {!Ptw}. *)

type config = {
  private_entries : int;
  shared_entries : int; (** 0 disables the shared L2 TLB. *)
  filter_registers : bool;
  private_hit_latency : Gem_sim.Time.cycles;
      (** cycles added to a request that hits in the private TLB *)
  shared_hit_latency : Gem_sim.Time.cycles;
      (** additional cycles for a shared-TLB hit *)
}

val default_config : config
(** 4-entry private, no shared TLB, filter registers on — the paper's
    recommended low-cost design point. *)

type t

val create :
  ?engine:Gem_sim.Engine.t -> ?name:string -> ?core:int -> config -> ptw:Ptw.t -> t
(** Registers a TLB metrics probe in [engine] (fresh private engine when
    none is supplied) and, when the engine is observing, emits a typed
    [Translate] event per request. [core] (default -1) attributes faults
    raised by this hierarchy. *)

val config : t -> config

type level = Filter | Private | Shared | Walk

type outcome = {
  paddr : int;
  finish : Gem_sim.Time.cycles;
  level : level; (** where the translation was satisfied *)
}

val translate :
  t -> now:Gem_sim.Time.cycles -> vaddr:int -> write:bool -> outcome
(** Translates one request. An unmapped page raises a structured
    {!Gem_sim.Fault.Trap} (cause [Page_fault]) through the engine, which
    records it against this hierarchy's component name. *)

type slot = {
  mutable s_paddr : int;
  mutable s_finish : Gem_sim.Time.cycles;
  mutable s_level : level;
}
(** A caller-owned result cell for the allocation-free hot path. *)

val make_slot : unit -> slot

val translate_into :
  t -> slot -> now:Gem_sim.Time.cycles -> vaddr:int -> write:bool -> unit
(** {!translate}, but writes the result into [slot] instead of allocating
    an {!outcome}. The DMA calls this once per page segment of every row,
    so the quiet path must not allocate per request. *)

val quiet : t -> bool
(** No injection plan is armed and no observer is installed: every
    request is a pure function of the translation state. *)

val repeat : t -> write:bool -> n:int -> Gem_sim.Time.cycles
(** Charges [n] (at least one) further requests in direction [write] to
    the page the previous request in that direction translated, and
    returns each one's latency. On a {!quiet} hierarchy, with nothing
    translated in between, the state and statistics match [n] calls of
    {!translate_into}: each is a filter hit (0 cycles) with filter
    registers on, else a private-TLB hit. Emits no event and observes no
    time. *)

val repeat_ppn : t -> write:bool -> vpn:int -> int
(** The ppn of [vpn] when a request to it in direction [write] would be
    a {!repeat} with filter registers on (the filter register and the
    last request in that direction both hold [vpn]), else {!Tlb.miss}. *)

val invalidate : t -> vpn:int -> unit
(** Drops one translation from the filter registers and both TLBs (the
    page-unmap shootdown path). The next access re-walks. *)

val set_inject :
  t -> plan:Gem_sim.Inject.t -> ?unmap:(vaddr:int -> unit) -> unit -> unit
(** Arms deterministic fault injection: every translation rolls the
    plan's [Unmap] stream (fires [unmap] and a shootdown — the host must
    remap) and its [Tlb_drop] stream (fires a shootdown only — the next
    access re-walks but succeeds). *)

val set_observer : t -> (Gem_sim.Time.cycles -> level -> unit) option -> unit
(** Installs a per-request probe (used to record miss-rate time series,
    Fig. 4). The observer sees the request time and the level that
    satisfied it. *)

val flush : t -> unit
(** Invalidate filter registers and both TLBs (context switch). *)

(* Statistics *)

val requests : t -> int
val filter_hits : t -> int
val private_hits : t -> int
(** Hits in the private TLB proper (excludes filter hits). *)

val shared_hits : t -> int
val walks : t -> int

val effective_hit_rate : t -> float
(** Paper's "private TLB hit rate (including hits on the filter
    registers)": (filter hits + private hits) / all requests. *)

val same_page_fraction_reads : t -> float
(** Fraction of consecutive read requests to the same virtual page
    (paper reports 87 %). *)

val same_page_fraction_writes : t -> float
(** Same for writes (paper reports 83 %). *)

val translation_stall_cycles : t -> Gem_sim.Time.cycles
(** Total cycles requests spent waiting on translation. *)

val reset_stats : t -> unit

val codec : t Gem_util.Snap.t
(** Both TLBs, the nested PTW, the filter registers, locality cursors and
    statistics. Injection plan state is {e not} included — the plan is
    shared with the DMA and serialized once at the SoC level. Restores
    into a hierarchy of identical configuration. *)
