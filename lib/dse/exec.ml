module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module H = Gem_vm.Hierarchy
module Layer = Gem_dnn.Layer
module P = Gem_obs.Profile

type run_result = {
  results : (Point.t * Outcome.t) array;
  simulated : int;
  cached : int;
}

(* --- single-point evaluation ------------------------------------------------ *)

let all_classes =
  [
    Layer.Class_conv;
    Layer.Class_depthwise;
    Layer.Class_matmul;
    Layer.Class_resadd;
    Layer.Class_pool;
    Layer.Class_elementwise;
  ]

(* Per-class cycles summed over every core's result, in [all_classes]
   order; both backends report the same breakdown. *)
let class_cycles results =
  List.map
    (fun klass ->
      let cycles =
        Array.fold_left
          (fun acc r ->
            acc
            + Option.value ~default:0
                (List.assoc_opt klass (Runtime.cycles_by_class r)))
          0 results
      in
      (Layer.class_name klass, cycles))
    all_classes

(* Evaluation with the analytic backend: no SoC elaboration at all — the
   estimator prices the lowering closed-form and supplies its own
   TLB/utilization tallies in place of the engine observers. *)
let evaluate_analytic (p : Point.t) base model : Outcome.t =
  let ncores = List.length p.Point.soc.Soc_config.cores in
  let jobs = Array.make ncores (model, p.Point.mode) in
  let rq = Gem_sw.Backend.request ~config:p.Point.soc jobs in
  let details = Gem_sw.Backend_analytic.estimate rq in
  let results = Array.map (fun d -> d.Gem_sw.Backend_analytic.d_result) details in
  let total =
    Array.fold_left (fun acc r -> max acc r.Runtime.r_total_cycles) 0 results
  in
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 details in
  let tlb_requests = sum (fun d -> d.Gem_sw.Backend_analytic.d_tlb_requests) in
  let tlb_walks = sum (fun d -> d.Gem_sw.Backend_analytic.d_tlb_walks) in
  let tlb_shared = sum (fun d -> d.Gem_sw.Backend_analytic.d_tlb_shared) in
  let comp_util =
    let horizon = float_of_int (max 1 total) in
    Array.to_list
      (Array.mapi
         (fun core d ->
           ( Printf.sprintf "core%d/mesh" core,
             float_of_int d.Gem_sw.Backend_analytic.d_mesh_busy /. horizon ))
         details)
  in
  {
    base with
    Outcome.backend = Gem_sw.Backend.kind_name Gem_sw.Backend.Analytic;
    total_cycles = total;
    per_core_cycles = Array.map (fun r -> r.Runtime.r_total_cycles) results;
    class_cycles = class_cycles results;
    tlb_requests;
    tlb_walks;
    tlb_shared_hits = tlb_shared;
    tlb_hit_rate =
      (if tlb_requests = 0 then 0.
       else 1. -. (float_of_int tlb_walks /. float_of_int tlb_requests));
    comp_util;
  }

(* Serving evaluation: the point's SoC runs the open-loop scenario (on
   either backend) and the outcome carries the latency/throughput block.
   total_cycles becomes the serving horizon — the batch-1 fields keep
   their zeroes so nobody mistakes a serving outcome for an inference
   outcome. *)
let evaluate_serve (p : Point.t) base (spec : Point.serve_spec) : Outcome.t =
  let parsed name = function
    | Ok v -> v
    | Error e ->
        invalid_arg (Printf.sprintf "Gem_dse.Exec: bad %s: %s" name e)
  in
  let scenario =
    {
      Gem_serve.Serve.sv_model = p.Point.model;
      sv_scale = p.Point.scale;
      sv_soc = p.Point.soc;
      sv_backend = p.Point.backend;
      sv_mode = p.Point.mode;
      sv_arrival =
        parsed "arrival" (Gem_serve.Arrival.spec_of_string spec.Point.ss_arrival);
      sv_seed = spec.Point.ss_seed;
      sv_batch =
        parsed "batch policy"
          (Gem_serve.Batch.policy_of_string spec.Point.ss_batch);
      sv_slos_ms = [ spec.Point.ss_slo_ms ];
      sv_duration_ms = spec.Point.ss_duration_ms;
      sv_warmup = true;
    }
  in
  let r = Gem_serve.Serve.run scenario in
  let rp = r.Gem_serve.Serve.sr_report in
  let sum = rp.Gem_serve.Slo.rp_latency in
  let ms c = c /. 1e6 in
  {
    base with
    Outcome.backend = Gem_sw.Backend.kind_name p.Point.backend;
    total_cycles = rp.Gem_serve.Slo.rp_horizon;
    comp_util = r.Gem_serve.Serve.sr_comp_util;
    comp_wait = r.Gem_serve.Serve.sr_comp_wait;
    comp_p95_lat = r.Gem_serve.Serve.sr_comp_p95;
    serve_offered = rp.Gem_serve.Slo.rp_offered;
    serve_completed = rp.Gem_serve.Slo.rp_completed;
    serve_p50_ms = ms sum.Gem_util.Stats.Histogram.p50;
    serve_p95_ms = ms sum.Gem_util.Stats.Histogram.p95;
    serve_p99_ms = ms sum.Gem_util.Stats.Histogram.p99;
    serve_max_ms = ms sum.Gem_util.Stats.Histogram.max;
    serve_throughput_rps = rp.Gem_serve.Slo.rp_throughput_rps;
    (* The scenario names exactly one SLO. *)
    serve_slo_attainment = snd (List.hd rp.Gem_serve.Slo.rp_attainment);
  }

let evaluate (p : Point.t) : Outcome.t =
  let accel =
    match p.Point.soc.Soc_config.cores with
    | c :: _ -> c.Soc_config.accel
    | [] -> invalid_arg "Gem_dse.Exec.evaluate: SoC has no cores"
  in
  let synth = Gemmini.Synthesis.estimate ~host:p.Point.synth_host accel in
  let base =
    {
      Outcome.empty with
      Outcome.fmax_ghz = synth.Gemmini.Synthesis.fmax_ghz;
      total_area_um2 = synth.Gemmini.Synthesis.total_area_um2;
      array_area_um2 = synth.Gemmini.Synthesis.spatial_array_area_um2;
      power_mw = synth.Gemmini.Synthesis.power_mw;
    }
  in
  if not p.Point.simulate then base
  else begin
    match p.Point.serve with
    | Some spec -> evaluate_serve p base spec
    | None ->
    let model =
      match Gem_dnn.Model_zoo.find p.Point.model with
      | Some m -> m
      | None ->
          invalid_arg
            (Printf.sprintf "Gem_dse.Exec.evaluate: unknown model %S"
               p.Point.model)
    in
    let model =
      if p.Point.scale = 1 then model
      else Gem_dnn.Model_zoo.scale_model ~factor:p.Point.scale model
    in
    match p.Point.backend with
    | Gem_sw.Backend.Analytic -> evaluate_analytic p base model
    | Gem_sw.Backend.Cycle ->
    let series =
      Option.map
        (fun window -> Gem_util.Stats.Series.create ~window)
        p.Point.tlb_window
    in
    let built = ref None in
    let attach soc =
      built := Some soc;
      Option.iter
        (fun s ->
          H.set_observer (Soc.tlb (Soc.core soc 0))
            (Some
               (fun now level ->
                 let miss =
                   match level with
                   | H.Filter | H.Private -> 0.
                   | H.Shared | H.Walk -> 1.
                 in
                 Gem_util.Stats.Series.add s ~time:(float_of_int now) miss)))
        series
    in
    let ncores = List.length p.Point.soc.Soc_config.cores in
    let results =
      (Gem_persist.Persist.run ~attach
         {
           Gem_persist.Persist.default with
           config = p.Point.soc;
           jobs = Array.make ncores (model, p.Point.mode);
         })
        .Gem_persist.Persist.o_results
    in
    let soc = Option.get !built in
    let hierarchy = Soc.tlb (Soc.core soc 0) in
    Option.iter (fun _ -> H.set_observer hierarchy None) series;
    let total =
      Array.fold_left (fun acc r -> max acc r.Runtime.r_total_cycles) 0 results
    in
    let comp_util, comp_wait, comp_p95_lat =
      Gem_sim.Engine.component_summary (Soc.engine soc) ~horizon:total
    in
    {
      base with
      Outcome.backend = Gem_sw.Backend.kind_name Gem_sw.Backend.Cycle;
      total_cycles = total;
      per_core_cycles =
        Array.map (fun r -> r.Runtime.r_total_cycles) results;
      class_cycles = class_cycles results;
      tlb_requests = H.requests hierarchy;
      tlb_walks = H.walks hierarchy;
      tlb_shared_hits = H.shared_hits hierarchy;
      tlb_hit_rate = H.effective_hit_rate hierarchy;
      tlb_same_page_reads = H.same_page_fraction_reads hierarchy;
      tlb_same_page_writes = H.same_page_fraction_writes hierarchy;
      tlb_windows =
        (match series with
        | Some s -> Gem_util.Stats.Series.windows s
        | None -> [||]);
      l2_miss_rate = Gem_mem.Cache.miss_rate (Soc.l2 soc);
      comp_util;
      comp_wait;
      comp_p95_lat;
    }
  end

(* --- environment defaults --------------------------------------------------- *)

let default_jobs () =
  match Sys.getenv_opt "GEMMINI_DSE_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> Domain.recommended_domain_count ()
      | Some n when n > 0 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf
               "GEMMINI_DSE_JOBS=%S: expected a non-negative integer" s))

let default_cache () =
  match Sys.getenv_opt "GEMMINI_DSE_CACHE" with
  | None | Some "" -> None
  | Some dir -> Some (Cache.create ~dir ())

(* --- worker pool ------------------------------------------------------------ *)

(* Work-stealing by atomic index: deterministic because slot [i] of [out]
   only ever receives the result of point [i]. *)
let pool_map ~jobs f points =
  let n = Array.length points in
  let out = Array.make n None in
  if jobs <= 1 || n <= 1 then
    Array.iteri (fun i p -> out.(i) <- Some (Ok (f p))) points
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (out.(i) <-
             (match f points.(i) with
             | v -> Some (Ok v)
             | exception e -> Some (Error e)));
          loop ()
        end
      in
      loop ()
    in
    let spawned = min (jobs - 1) (n - 1) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)
    out

(* --- the executor --------------------------------------------------------------- *)

(* The probe state is per-domain (DLS), so worker pools attribute their
   evaluation time without cross-domain contention. *)
let profiled_evaluate point =
  if !P.on then begin
    P.enter P.dse;
    Fun.protect ~finally:(fun () -> P.leave P.dse) (fun () -> evaluate point)
  end
  else evaluate point

let run ?jobs ?cache points =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some 0 -> Domain.recommended_domain_count ()
    | Some j -> j
  in
  let cache = match cache with None -> default_cache () | Some c -> c in
  (* Each outcome reaches the cache the moment it completes, so a sweep
     that is killed or raises keeps every point it finished: the next run
     over the same cache re-simulates only the missing ones. *)
  let evaluate_memo point =
    match cache with
    | None -> (profiled_evaluate point, false)
    | Some c -> (
        match Cache.find c point with
        | Some outcome -> (outcome, true)
        | None ->
            let outcome = profiled_evaluate point in
            Cache.store c point outcome;
            (outcome, false))
  in
  let evaluated = pool_map ~jobs evaluate_memo points in
  let cached =
    Array.fold_left (fun n (_, hit) -> if hit then n + 1 else n) 0 evaluated
  in
  {
    results = Array.map2 (fun p (o, _) -> (p, o)) points evaluated;
    simulated = Array.length points - cached;
    cached;
  }

(* --- metrics --------------------------------------------------------------- *)

(* Registered from the coordinator domain after the pool has drained, so
   every value is a settled tally — no sampling races with workers. *)
let register_metrics reg (r : run_result) =
  let module M = Gem_obs.Metrics in
  M.int reg "dse.points" (Array.length r.results);
  M.int reg "dse.simulated" r.simulated;
  M.int reg "dse.cached" r.cached
