(** SoC-level generator parameters (paper Section III-C / Fig. 5).

    An SoC instance is one or more cores — each a host CPU paired with a
    Gemmini-generated accelerator and its private TLB hierarchy — sharing
    an L2 cache, a system bus, and a DRAM channel. The Fig. 9 case study
    is expressed entirely in these knobs: Base / BigSP / BigL2 x
    single-core / dual-core. *)

type core_config = {
  cpu : Gem_cpu.Cpu_model.kind;
  accel : Gemmini.Params.t;
  tlb : Gem_vm.Hierarchy.config;
}

type t = {
  cores : core_config list;
  l2_size_bytes : int;
  l2_ways : int;
  l2_line_bytes : int;
  l2_hit_latency : Gem_sim.Time.cycles;
  l2_port_bytes : int;  (** L2 bandwidth per cycle, shared by all cores *)
  dram_latency : Gem_sim.Time.cycles;
  dram_bytes_per_cycle : int;
  functional : bool;  (** move real data (small workloads only) *)
}

val default_core : core_config
(** Rocket host + the paper's default 16x16 accelerator + the recommended
    4-entry private TLB with filter registers. *)

val default : t
(** Single default core, 1 MB / 16-way / 64 B shared L2 (20-cycle hit),
    32 B/cycle L2 port, DRAM 80 cycles / 16 B/cycle, timing-only. *)

val dual_core : t
(** Two default cores sharing the default memory system (Fig. 5). *)

val with_cores : core_config list -> t -> t
val with_l2_size : int -> t -> t
val with_functional : bool -> t -> t

val map_accel : (Gemmini.Params.t -> Gemmini.Params.t) -> t -> t
(** Applies a parameter change to every core's accelerator. *)

val map_tlb : (Gem_vm.Hierarchy.config -> Gem_vm.Hierarchy.config) -> t -> t

val validate : t -> (unit, string list) result
(** Every problem with [t], including any L2 geometry that
    [Gem_mem.Cache.create] would refuse. *)

val describe : t -> string
