type completion = {
  c_id : int;
  c_core : int;
  c_arrival : Gem_sim.Time.cycles;
  c_start : Gem_sim.Time.cycles;
  c_finish : Gem_sim.Time.cycles;
}

type report = {
  rp_offered : int;
  rp_completed : int;
  rp_horizon : Gem_sim.Time.cycles;
  rp_latency : Gem_util.Stats.Histogram.summary;
  rp_throughput_rps : float;
  rp_attainment : (float * float) list;
  rp_per_core : (int * int) list;
}

let ms_of_cycles c = float_of_int c /. 1e6
(* A cycle count must fit an OCaml int: past 2^62 cycles (about 4.6e12
   ms) [int_of_float] would wrap silently. *)
let in_cycle_range cycles = Float.abs cycles < 0x1p62

let cycles_of_ms ms =
  let cycles = ms *. 1e6 in
  if in_cycle_range cycles then int_of_float cycles
  else
    invalid_arg
      (Printf.sprintf "Slo.cycles_of_ms: %g ms is beyond the cycle range" ms)

let latency c = c.c_finish - c.c_arrival

let analyze ?hist ~origin ~offered ~cores ~slos_ms completions =
  let completed = List.length completions in
  let horizon =
    List.fold_left (fun acc c -> max acc (c.c_finish - origin)) 0 completions
  in
  let max_lat =
    List.fold_left (fun acc c -> max acc (latency c)) 0 completions
  in
  let h =
    match hist with
    | Some h ->
        Gem_util.Stats.Histogram.reset h;
        h
    | None ->
        (* Range depends only on the data, so equal completion lists give
           equal (deterministic) summaries. *)
        Gem_util.Stats.Histogram.create ~buckets:512
          ~range:(float_of_int (max_lat + 1))
  in
  List.iter
    (fun c -> Gem_util.Stats.Histogram.add h (float_of_int (latency c)))
    completions;
  let summary =
    if completed = 0 then
      (* All-zero, not NaN: summaries land in CSV/JSON reports where NaN
         is at best ugly and at worst unparseable. *)
      { Gem_util.Stats.Histogram.p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }
    else Gem_util.Stats.Histogram.summary h
  in
  let attainment =
    List.map
      (fun slo ->
        let budget = cycles_of_ms slo in
        let ok =
          List.fold_left
            (fun acc c -> if latency c <= budget then acc + 1 else acc)
            0 completions
        in
        (* Offered, not completed, in the denominator: a request still
           queued at the end of the run has missed its SLO. An empty
           window has no attainment at all: NaN, never a perfect 1.0. *)
        (slo, if offered = 0 then Float.nan else float_of_int ok /. float_of_int offered))
      slos_ms
  in
  let per_core =
    List.init cores (fun i ->
        ( i,
          List.fold_left
            (fun acc c -> if c.c_core = i then acc + 1 else acc)
            0 completions ))
  in
  {
    rp_offered = offered;
    rp_completed = completed;
    rp_horizon = horizon;
    rp_latency = summary;
    rp_throughput_rps =
      (if horizon = 0 then 0.0
       else float_of_int completed /. float_of_int horizon *. 1e9);
    rp_attainment = attainment;
    rp_per_core = per_core;
  }
