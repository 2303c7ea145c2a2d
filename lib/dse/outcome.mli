(** The typed measurement record one {!Point} evaluates to.

    Every field a sweep-shaped experiment reads lives here, so a cached
    outcome can regenerate the experiment's output bit-for-bit without
    re-simulating. The JSON round-trip is exact: floats are emitted with
    enough digits to reconstruct the same double. *)

type t = {
  backend : string;
      (** provenance: which execution backend produced the timing numbers
          (["cycle"] or ["analytic"]; [""] only in {!empty}). Mandatory in
          the JSON round-trip so pre-seam cache entries read as misses. *)
  (* Timing simulation (zeroed when the point is synthesis-only). *)
  total_cycles : int;  (** max over cores *)
  per_core_cycles : int array;
  class_cycles : (string * int) list;
      (** per layer-class wall cycles, summed over cores, in fixed class
          order (conv, depthwise, matmul, resadd, pool, elementwise) *)
  (* Analytic synthesis estimate (always computed). *)
  fmax_ghz : float;
  total_area_um2 : float;
  array_area_um2 : float;
  power_mw : float;
  (* Core-0 TLB-hierarchy statistics. *)
  tlb_requests : int;
  tlb_walks : int;
  tlb_shared_hits : int;
  tlb_hit_rate : float;  (** effective (filters + private + shared) *)
  tlb_same_page_reads : float;
  tlb_same_page_writes : float;
  tlb_windows : (float * float) array;
      (** (window start, private-miss rate) series; empty unless the point
          set [tlb_window] *)
  (* Shared memory system. *)
  l2_miss_rate : float;
  (* Per-component observability summary, in engine registration order
     (component names are core-prefixed, e.g. "core0/mesh"). *)
  comp_util : (string * float) list;  (** busy / horizon, 0..1 *)
  comp_wait : (string * int) list;  (** total stall (wait) cycles *)
  comp_p95_lat : (string * float) list;
      (** p95 queue latency in cycles (request to service start) *)
  (* Serving scenario measurements (zeroed unless the point carried a
     {!Point.serve_spec}). *)
  serve_offered : int;  (** requests in the arrival stream *)
  serve_completed : int;
  serve_p50_ms : float;  (** end-to-end latency percentiles *)
  serve_p95_ms : float;
  serve_p99_ms : float;
  serve_max_ms : float;
  serve_throughput_rps : float;
  serve_slo_attainment : float;
      (** fraction of offered requests inside the spec's SLO; NaN when
          none was offered *)
}

val empty : t
(** All-zero record; the synthesis-only evaluator fills in its fields. *)

val to_json : t -> Gem_util.Jsonx.t

val of_json : Gem_util.Jsonx.t -> (t, string) result
(** Total: rejects missing fields rather than defaulting them, so a cache
    file from an older schema reads as a miss, not as a wrong result. *)

val class_cycles_of : t -> Gem_dnn.Layer.klass -> int
(** Lookup by layer class; 0 when the class did not occur. *)

val util_of : t -> string -> float
(** First component whose name ends with the suffix ("mesh" matches
    "core0/mesh"); 0 when absent. Same convention for the two below. *)

val wait_of : t -> string -> int
val p95_lat_of : t -> string -> float
