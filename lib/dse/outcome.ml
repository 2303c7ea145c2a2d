module J = Gem_util.Jsonx

type t = {
  backend : string;
  total_cycles : int;
  per_core_cycles : int array;
  class_cycles : (string * int) list;
  fmax_ghz : float;
  total_area_um2 : float;
  array_area_um2 : float;
  power_mw : float;
  tlb_requests : int;
  tlb_walks : int;
  tlb_shared_hits : int;
  tlb_hit_rate : float;
  tlb_same_page_reads : float;
  tlb_same_page_writes : float;
  tlb_windows : (float * float) array;
  l2_miss_rate : float;
  (* Per-component observability summary (engine registration order). *)
  comp_util : (string * float) list;
  comp_wait : (string * int) list;
  comp_p95_lat : (string * float) list;
  (* Serving scenario (zeroed unless the point carried a serve spec). *)
  serve_offered : int;
  serve_completed : int;
  serve_p50_ms : float;
  serve_p95_ms : float;
  serve_p99_ms : float;
  serve_max_ms : float;
  serve_throughput_rps : float;
  serve_slo_attainment : float;
}

let empty =
  {
    backend = "";
    total_cycles = 0;
    per_core_cycles = [||];
    class_cycles = [];
    fmax_ghz = 0.;
    total_area_um2 = 0.;
    array_area_um2 = 0.;
    power_mw = 0.;
    tlb_requests = 0;
    tlb_walks = 0;
    tlb_shared_hits = 0;
    tlb_hit_rate = 0.;
    tlb_same_page_reads = 0.;
    tlb_same_page_writes = 0.;
    tlb_windows = [||];
    l2_miss_rate = 0.;
    comp_util = [];
    comp_wait = [];
    comp_p95_lat = [];
    serve_offered = 0;
    serve_completed = 0;
    serve_p50_ms = 0.;
    serve_p95_ms = 0.;
    serve_p99_ms = 0.;
    serve_max_ms = 0.;
    serve_throughput_rps = 0.;
    serve_slo_attainment = 0.;
  }

(* Every field is required: a cache entry from an older schema (one
   without backend provenance, or written before serving points shared
   the cache namespace) reads as a miss, not as a wrong result. *)
let codec =
  Gem_util.Snap.(
    obj ~init:(fun () -> empty)
      [ update "backend" string (fun t -> t.backend) (fun t backend -> { t with backend });
        update "total_cycles" int (fun t -> t.total_cycles)
          (fun t total_cycles -> { t with total_cycles });
        update "per_core_cycles" int_array (fun t -> t.per_core_cycles)
          (fun t per_core_cycles -> { t with per_core_cycles });
        update "class_cycles" (assoc int) (fun t -> t.class_cycles)
          (fun t class_cycles -> { t with class_cycles });
        update "fmax_ghz" float (fun t -> t.fmax_ghz) (fun t fmax_ghz -> { t with fmax_ghz });
        update "total_area_um2" float (fun t -> t.total_area_um2)
          (fun t total_area_um2 -> { t with total_area_um2 });
        update "array_area_um2" float (fun t -> t.array_area_um2)
          (fun t array_area_um2 -> { t with array_area_um2 });
        update "power_mw" float (fun t -> t.power_mw) (fun t power_mw -> { t with power_mw });
        update "tlb_requests" int (fun t -> t.tlb_requests)
          (fun t tlb_requests -> { t with tlb_requests });
        update "tlb_walks" int (fun t -> t.tlb_walks) (fun t tlb_walks -> { t with tlb_walks });
        update "tlb_shared_hits" int (fun t -> t.tlb_shared_hits)
          (fun t tlb_shared_hits -> { t with tlb_shared_hits });
        update "tlb_hit_rate" float (fun t -> t.tlb_hit_rate)
          (fun t tlb_hit_rate -> { t with tlb_hit_rate });
        update "tlb_same_page_reads" float (fun t -> t.tlb_same_page_reads)
          (fun t tlb_same_page_reads -> { t with tlb_same_page_reads });
        update "tlb_same_page_writes" float (fun t -> t.tlb_same_page_writes)
          (fun t tlb_same_page_writes -> { t with tlb_same_page_writes });
        update "tlb_windows" (array (pair float float)) (fun t -> t.tlb_windows)
          (fun t tlb_windows -> { t with tlb_windows });
        update "l2_miss_rate" float (fun t -> t.l2_miss_rate)
          (fun t l2_miss_rate -> { t with l2_miss_rate });
        update "comp_util" (assoc float) (fun t -> t.comp_util)
          (fun t comp_util -> { t with comp_util });
        update "comp_wait" (assoc int) (fun t -> t.comp_wait)
          (fun t comp_wait -> { t with comp_wait });
        update "comp_p95_lat" (assoc float) (fun t -> t.comp_p95_lat)
          (fun t comp_p95_lat -> { t with comp_p95_lat });
        update "serve_offered" int (fun t -> t.serve_offered)
          (fun t serve_offered -> { t with serve_offered });
        update "serve_completed" int (fun t -> t.serve_completed)
          (fun t serve_completed -> { t with serve_completed });
        update "serve_p50_ms" float (fun t -> t.serve_p50_ms)
          (fun t serve_p50_ms -> { t with serve_p50_ms });
        update "serve_p95_ms" float (fun t -> t.serve_p95_ms)
          (fun t serve_p95_ms -> { t with serve_p95_ms });
        update "serve_p99_ms" float (fun t -> t.serve_p99_ms)
          (fun t serve_p99_ms -> { t with serve_p99_ms });
        update "serve_max_ms" float (fun t -> t.serve_max_ms)
          (fun t serve_max_ms -> { t with serve_max_ms });
        update "serve_throughput_rps" float (fun t -> t.serve_throughput_rps)
          (fun t serve_throughput_rps -> { t with serve_throughput_rps });
        update "serve_slo_attainment" float (fun t -> t.serve_slo_attainment)
          (fun t serve_slo_attainment -> { t with serve_slo_attainment }) ])

let to_json = Gem_util.Snap.snapshot codec

let of_json json =
  try Ok (Gem_util.Snap.decode codec json)
  with Gem_util.Snap.Malformed msg -> Error ("outcome: " ^ msg)

let class_cycles_of t klass =
  Option.value ~default:0
    (List.assoc_opt (Gem_dnn.Layer.class_name klass) t.class_cycles)

(* Components are core-prefixed ("core0/mesh"); experiments usually want
   "the mesh" regardless of core, so look up by suffix. *)
let by_suffix pairs suffix =
  List.find_map
    (fun (name, v) ->
      if String.ends_with ~suffix name then Some v else None)
    pairs

let util_of t suffix = Option.value ~default:0. (by_suffix t.comp_util suffix)
let wait_of t suffix = Option.value ~default:0 (by_suffix t.comp_wait suffix)

let p95_lat_of t suffix =
  Option.value ~default:0. (by_suffix t.comp_p95_lat suffix)
