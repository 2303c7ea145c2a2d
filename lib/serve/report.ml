let pct x = 100. *. x

(* Aggregate per-component stats by name suffix, so "mesh utilization"
   means the mean over core0/accel/mesh, core1/accel/mesh, ... *)
let matching pairs suffix =
  List.filter_map
    (fun (name, v) -> if String.ends_with ~suffix name then Some v else None)
    pairs

let util_mean result suffix =
  match matching result.Serve.sr_comp_util suffix with
  | [] -> 0.
  | vs -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)

let wait_sum result suffix =
  List.fold_left ( + ) 0 (matching result.Serve.sr_comp_wait suffix)

let ms = Slo.ms_of_cycles

let render (r : Serve.result) =
  let sv = r.Serve.sr_scenario in
  let rp = r.Serve.sr_report in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "serving %s/%d: %d core%s, %s backend, %s" sv.Serve.sv_model
    sv.Serve.sv_scale (Serve.cores sv)
    (if Serve.cores sv = 1 then "" else "s")
    (Gem_sw.Backend.kind_name sv.Serve.sv_backend)
    (Gem_sw.Runtime.mode_desc sv.Serve.sv_mode);
  line "arrival %s seed %d, batch %s, window %.3f ms%s"
    (Arrival.spec_to_string sv.Serve.sv_arrival)
    sv.Serve.sv_seed
    (Batch.policy_to_string sv.Serve.sv_batch)
    sv.Serve.sv_duration_ms
    (if sv.Serve.sv_warmup && sv.Serve.sv_backend = Gem_sw.Backend.Cycle then
       ", warmed"
     else "");
  line "requests: %d offered, %d completed; horizon %.3f ms; throughput %.1f req/s"
    rp.Slo.rp_offered rp.Slo.rp_completed
    (ms rp.Slo.rp_horizon)
    rp.Slo.rp_throughput_rps;
  let s = rp.Slo.rp_latency in
  let f c = c /. 1e6 in
  line "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f"
    (f s.Gem_util.Stats.Histogram.p50)
    (f s.Gem_util.Stats.Histogram.p95)
    (f s.Gem_util.Stats.Histogram.p99)
    (f s.Gem_util.Stats.Histogram.max);
  List.iter
    (fun (slo, att) ->
      if Float.is_nan att then line "slo %.2f ms: n/a (no request offered)" slo
      else line "slo %.2f ms: %.2f%% attained" slo (pct att))
    rp.Slo.rp_attainment;
  let batches = List.length r.Serve.sr_dispatches in
  let mean_batch =
    if batches = 0 then 0.
    else
      float_of_int rp.Slo.rp_offered /. float_of_int batches
  in
  line "batches: %d dispatched, mean size %.2f" batches mean_batch;
  line "per-core completed: %s"
    (String.concat ", "
       (List.map
          (fun (core, n) -> Printf.sprintf "core%d %d" core n)
          rp.Slo.rp_per_core));
  if r.Serve.sr_comp_util <> [] then
    line "util: mesh %.1f%%  dma %.1f%%" (pct (util_mean r "mesh"))
      (pct (util_mean r "/dma"));
  Buffer.contents buf

let csv_header =
  "model,scale,cores,backend,arrival,batch,seed,window_ms,offered,completed,\
   horizon_ms,throughput_rps,p50_ms,p95_ms,p99_ms,max_ms,slo_ms,\
   slo_attained_pct,mesh_util_pct,dma_util_pct,dma_wait_cycles\n"

let csv_row (r : Serve.result) =
  let sv = r.Serve.sr_scenario in
  let rp = r.Serve.sr_report in
  let s = rp.Slo.rp_latency in
  let f c = c /. 1e6 in
  let slo, att =
    match rp.Slo.rp_attainment with (s, a) :: _ -> (s, a) | [] -> (0., Float.nan)
  in
  Printf.sprintf
    "%s,%d,%d,%s,%s,%s,%d,%.3f,%d,%d,%.3f,%.1f,%.3f,%.3f,%.3f,%.3f,%.2f,%.2f,%.2f,%.2f,%d\n"
    sv.Serve.sv_model sv.Serve.sv_scale (Serve.cores sv)
    (Gem_sw.Backend.kind_name sv.Serve.sv_backend)
    (Arrival.spec_to_string sv.Serve.sv_arrival)
    (Batch.policy_to_string sv.Serve.sv_batch)
    sv.Serve.sv_seed sv.Serve.sv_duration_ms rp.Slo.rp_offered
    rp.Slo.rp_completed
    (ms rp.Slo.rp_horizon)
    rp.Slo.rp_throughput_rps
    (f s.Gem_util.Stats.Histogram.p50)
    (f s.Gem_util.Stats.Histogram.p95)
    (f s.Gem_util.Stats.Histogram.p99)
    (f s.Gem_util.Stats.Histogram.max)
    slo (pct att)
    (pct (util_mean r "mesh"))
    (pct (util_mean r "/dma"))
    (wait_sum r "/dma")
