module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module J = Gem_util.Jsonx

type scenario = {
  sv_model : string;
  sv_scale : int;
  sv_soc : Soc_config.t;
  sv_backend : Gem_sw.Backend.kind;
  sv_mode : Gem_sw.Runtime.mode;
  sv_arrival : Arrival.spec;
  sv_seed : int;
  sv_batch : Batch.policy;
  sv_slos_ms : float list;
  sv_duration_ms : float;
  sv_warmup : bool;
}

let config_for ~cores accel =
  Soc_config.with_cores
    (List.init cores (fun _ -> { Soc_config.default_core with accel }))
    Soc_config.default

let cores sv = List.length sv.sv_soc.Soc_config.cores

let default =
  {
    sv_model = "mobilenetv2";
    sv_scale = 16;
    sv_soc = config_for ~cores:2 Gemmini.Params.default;
    sv_backend = Gem_sw.Backend.Cycle;
    sv_mode = Runtime.Accel { im2col_on_accel = true };
    sv_arrival = Arrival.Poisson { rate_rps = 2000. };
    sv_seed = 42;
    sv_batch = Batch.Fixed 4;
    sv_slos_ms = [ 5.0; 10.0 ];
    sv_duration_ms = 5.0;
    sv_warmup = true;
  }

type result = {
  sr_scenario : scenario;
  sr_report : Slo.report;
  sr_completions : Slo.completion list;
  sr_dispatches : (int * int list) list;
  sr_comp_util : (string * float) list;
  sr_comp_wait : (string * int) list;
  sr_comp_p95 : (string * float) list;
}

let resolve_model sv =
  match Gem_dnn.Model_zoo.find sv.sv_model with
  | None ->
      invalid_arg (Printf.sprintf "Gem_serve: unknown model %S" sv.sv_model)
  | Some m ->
      if sv.sv_scale = 1 then m
      else Gem_dnn.Model_zoo.scale_model ~factor:sv.sv_scale m

let by_id completions =
  List.sort (fun a b -> compare a.Slo.c_id b.Slo.c_id) completions

(* --- analytic backend: pure event loop over a closed-form service time --- *)

let run_analytic ?hist sv =
  let model = resolve_model sv in
  let ncores = cores sv in
  (* Price one inference under steady-state contention: all cores active
     on the shared L2 port / DRAM floors. *)
  let detail =
    Gem_sw.Backend_analytic.estimate_core sv.sv_soc ~core:0 ~cores:ncores
      model ~mode:sv.sv_mode ~policy:Runtime.Abort ~watchdog:None
  in
  let svc =
    max 1 detail.Gem_sw.Backend_analytic.d_result.Runtime.r_total_cycles
  in
  let duration = Slo.cycles_of_ms sv.sv_duration_ms in
  let arrivals = Arrival.generate sv.sv_arrival ~seed:sv.sv_seed ~duration in
  let n = Array.length arrivals in
  let free = Array.make ncores 0 in
  let served = Array.make ncores 0 in
  let next = ref 0 in
  let completions = ref [] in
  let dispatches = ref [] in
  while !next < n do
    (* Mirror of the cycle scheduler's claiming discipline: the earliest-
       free core takes the queue head; ties go to the lowest index. *)
    let core = ref 0 in
    for i = 1 to ncores - 1 do
      if free.(i) < free.(!core) then core := i
    done;
    let i = !core in
    let k, start =
      Batch.form sv.sv_batch ~arrivals ~next:!next ~free:free.(i)
    in
    let ids = ref [] in
    for j = 0 to k - 1 do
      let rq = arrivals.(!next + j) in
      ids := rq.Arrival.rq_id :: !ids;
      completions :=
        {
          Slo.c_id = rq.Arrival.rq_id;
          c_core = i;
          c_arrival = rq.Arrival.rq_arrival;
          c_start = start + (j * svc);
          c_finish = start + ((j + 1) * svc);
        }
        :: !completions
    done;
    dispatches := (i, List.rev !ids) :: !dispatches;
    next := !next + k;
    free.(i) <- start + (k * svc);
    served.(i) <- served.(i) + k
  done;
  let completions = List.rev !completions in
  let horizon =
    List.fold_left (fun acc c -> max acc c.Slo.c_finish) 1 completions
  in
  let comp_util =
    List.init ncores (fun i ->
        ( Printf.sprintf "core%d/mesh" i,
          float_of_int
            (served.(i) * detail.Gem_sw.Backend_analytic.d_mesh_busy)
          /. float_of_int horizon ))
  in
  {
    sr_scenario = sv;
    sr_report =
      Slo.analyze ?hist ~origin:0 ~offered:n ~cores:ncores
        ~slos_ms:sv.sv_slos_ms completions;
    sr_completions = by_id completions;
    sr_dispatches = List.rev !dispatches;
    sr_comp_util = comp_util;
    sr_comp_wait = [];
    sr_comp_p95 = [];
  }

(* --- cycle backend: the real SoC --------------------------------------- *)

let warm_meta sv base =
  [
    ("kind", J.String "serve-warm");
    ("model", J.String sv.sv_model);
    ("scale", J.Int sv.sv_scale);
    ("cores", J.Int (cores sv));
    ("mode", J.String (Runtime.mode_desc sv.sv_mode));
    ("finish", J.Int base);
  ]

let check_warm_meta sv meta =
  let str k =
    match List.assoc_opt k meta with Some (J.String s) -> Some s | _ -> None
  in
  let int k =
    match List.assoc_opt k meta with Some (J.Int i) -> Some i | _ -> None
  in
  let ok =
    str "kind" = Some "serve-warm"
    && str "model" = Some sv.sv_model
    && int "scale" = Some sv.sv_scale
    && int "cores" = Some (cores sv)
    && str "mode" = Some (Runtime.mode_desc sv.sv_mode)
  in
  if not ok then
    invalid_arg
      "Gem_serve: warm-start envelope does not match this scenario \
       (model/scale/cores/mode)"

let run_cycle ?hist ?attach ?warm_in ?warm_out sv =
  let model = resolve_model sv in
  let duration = Slo.cycles_of_ms sv.sv_duration_ms in
  let arrivals = Arrival.generate sv.sv_arrival ~seed:sv.sv_seed ~duration in
  let ncores = cores sv in
  let soc = Soc.create sv.sv_soc in
  (* The engine keeps every figure the result reports, so the run stays
     quiet unless [attach] adds a sink, which never perturbs timing. *)
  Option.iter (fun f -> f soc) attach;
  (* Tensor allocation is deterministic, so sessions made on the fresh
     SoC compute the same addresses a warm snapshot was taken over;
     restoring afterwards overlays the identical allocator state. *)
  let sessions =
    Array.init ncores (fun i ->
        Runtime.make_session soc ~core:i model ~mode:sv.sv_mode)
  in
  (match warm_in with
  | Some path -> (
      match Gem_persist.Persist.load ~path with
      | Error reason ->
          invalid_arg
            (Printf.sprintf "Gem_serve: cannot load warm state %s: %s" path
               reason)
      | Ok (meta, payload) -> (
          check_warm_meta sv meta;
          match Soc.restore soc payload with
          | () -> ()
          | exception Gem_util.Snap.Malformed msg ->
              invalid_arg
                (Printf.sprintf "Gem_serve: warm state %s does not fit this SoC: %s"
                   path msg)))
  | None ->
      if sv.sv_warmup then begin
        (* One inference per core, contending — the steady state the
           measured window continues from. Completions are discarded. *)
        ignore
          (Soc.run_parallel soc
             (Array.map
                (fun s -> Soc.program (Runtime.request_steps s ~records:(ref [])))
                sessions))
      end);
  let base = Soc.finish_time soc in
  Option.iter
    (fun path ->
      Gem_persist.Persist.save ~path ~meta:(warm_meta sv base)
        ~payload:(Soc.snapshot soc))
    warm_out;
  let arrivals =
    Array.map
      (fun r -> { r with Arrival.rq_arrival = r.Arrival.rq_arrival + base })
      arrivals
  in
  let sched = Sched.run soc ~sessions ~arrivals ~policy:sv.sv_batch in
  let comp_util, comp_wait, comp_p95 =
    Gem_sim.Engine.component_summary (Soc.engine soc)
      ~horizon:(Soc.finish_time soc)
  in
  {
    sr_scenario = sv;
    sr_report =
      Slo.analyze ?hist ~origin:base ~offered:(Array.length arrivals)
        ~cores:ncores ~slos_ms:sv.sv_slos_ms sched.Sched.sc_completions;
    sr_completions = by_id sched.Sched.sc_completions;
    sr_dispatches = sched.Sched.sc_dispatches;
    sr_comp_util = comp_util;
    sr_comp_wait = comp_wait;
    sr_comp_p95 = comp_p95;
  }

(* Each SLO target names its report row and metrics by its [%g] label,
   so two targets with one label would register one metric twice. *)
let check_slos sv =
  let rec go = function
    | [] -> ()
    | l :: rest ->
        if List.mem l rest then
          invalid_arg (Printf.sprintf "Gem_serve: SLO target %s ms is given twice" l);
        go rest
  in
  go (List.map (Printf.sprintf "%g") sv.sv_slos_ms)

let run ?hist ?attach ?warm_in ?warm_out ?domains:_ sv =
  check_slos sv;
  match sv.sv_backend with
  | Gem_sw.Backend.Cycle -> run_cycle ?hist ?attach ?warm_in ?warm_out sv
  | Gem_sw.Backend.Analytic ->
      if warm_in <> None || warm_out <> None then
        invalid_arg "Gem_serve: warm start needs the cycle backend";
      run_analytic ?hist sv

(* --- metrics registration -------------------------------------------------

   One call registers everything a serving run contributes to a metrics
   snapshot: headline SLO figures, per-core and merged latency
   histograms (merged via Stats.Histogram.merge — the per-core
   histograms share one geometry by construction), per-SLO burn-rate
   series (fraction of completions in each 1 ms window that missed the
   SLO) and per-core occupancy series (busy fraction of each window). *)

let ms_window = 1e6 (* 1 ms of cycles at the 1 GHz convention *)

let register_metrics reg r =
  let module M = Gem_obs.Metrics in
  let module H = Gem_util.Stats.Histogram in
  let module S = Gem_util.Stats.Series in
  let rp = r.sr_report in
  M.int reg "serve.offered" rp.Slo.rp_offered;
  M.int reg "serve.completed" rp.Slo.rp_completed;
  M.int reg "serve.horizon_cycles" rp.Slo.rp_horizon;
  M.float reg "serve.throughput_rps" rp.Slo.rp_throughput_rps;
  List.iter
    (fun (slo, a) ->
      M.float reg (Printf.sprintf "serve.slo.%gms.attainment" slo) a)
    rp.Slo.rp_attainment;
  List.iter
    (fun (i, n) -> M.int reg (Printf.sprintf "serve.core%d.completed" i) n)
    rp.Slo.rp_per_core;
  let completions = r.sr_completions in
  let latency c = c.Slo.c_finish - c.Slo.c_arrival in
  (* Completions carry absolute cycles (warm-start base included); series
     are reported relative to the earliest arrival so timelines start
     near zero regardless of warmup. *)
  let origin =
    List.fold_left
      (fun acc c -> min acc c.Slo.c_arrival)
      (match completions with [] -> 0 | c :: _ -> c.Slo.c_arrival)
      completions
  in
  let ncores = cores r.sr_scenario in
  let max_lat = List.fold_left (fun acc c -> max acc (latency c)) 0 completions in
  let range = float_of_int (max_lat + 1) in
  let per_core = Array.init ncores (fun _ -> H.create ~buckets:512 ~range) in
  List.iter
    (fun c ->
      if c.Slo.c_core >= 0 && c.Slo.c_core < ncores then
        H.add per_core.(c.Slo.c_core) (float_of_int (latency c)))
    completions;
  Array.iteri
    (fun i h -> M.histogram reg (Printf.sprintf "serve.core%d.latency" i) h)
    per_core;
  if ncores > 0 then begin
    let merged = Array.fold_left H.merge per_core.(0) (Array.sub per_core 1 (ncores - 1)) in
    M.histogram reg "serve.latency" merged
  end;
  List.iter
    (fun (slo, _) ->
      let budget = Slo.cycles_of_ms slo in
      let s = S.create ~window:ms_window in
      List.iter
        (fun c ->
          S.add s
            ~time:(float_of_int (c.Slo.c_finish - origin))
            (if latency c > budget then 1.0 else 0.0))
        completions;
      M.series reg (Printf.sprintf "serve.slo.%gms.burn_rate" slo) s)
    rp.Slo.rp_attainment;
  for i = 0 to ncores - 1 do
    let s = S.create ~window:ms_window in
    List.iter
      (fun c ->
        if c.Slo.c_core = i then
          S.add s
            ~time:(float_of_int (c.Slo.c_start - origin))
            (float_of_int (c.Slo.c_finish - c.Slo.c_start) /. ms_window))
      completions;
    M.series_total reg (Printf.sprintf "serve.core%d.occupancy" i) s
  done
