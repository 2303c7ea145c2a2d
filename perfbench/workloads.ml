(* The benchmark's three workloads. Each measures the simulator from
   outside: it times its own calls into the layers' public functions and
   reads their public counters; the traced variants add the benchmark's
   own spans (Spans) or switch on the program's existing Gem_obs.Profile
   probes. README.md gives the rationale for every workload and metric. *)

module J = Gem_util.Jsonx
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Engine = Gem_sim.Engine
module Export = Gem_sim.Export
module P = Gem_obs.Profile
module Serve = Gem_serve.Serve
module Exec = Gem_dse.Exec
module Point = Gem_dse.Point

let now = Unix.gettimeofday
let mode = Runtime.Accel { im2col_on_accel = true }

(* Host Domains for serving and the DSE pool: the reference host has two
   cores, and load comes from one process. *)
let domains = 2

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* --- run context ----------------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;
  scratch : string;  (** scratch directory inside the checkout *)
  expected : J.t;  (** perfbench/expected.json *)
  default_seed : bool;  (** exact output checks apply *)
  spans : Spans.t;
  acc : (string, float) Hashtbl.t;  (** per-layer sums from traced rounds *)
  mutable attempted : int;
  mutable failed : int;
  mutable setup_ok : bool;
}

let fail ctx ~ops msg =
  ctx.failed <- ctx.failed + ops;
  prerr_endline ("perfbench: FAILED: " ^ msg)

let bump ctx name v =
  Hashtbl.replace ctx.acc name
    (v +. Option.value ~default:0. (Hashtbl.find_opt ctx.acc name))

let expected ctx path =
  List.fold_left
    (fun j key -> Option.bind j (J.member key))
    (Some ctx.expected) path

let expected_int ctx path = Option.bind (expected ctx path) J.to_int

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_size path = (Unix.stat path).Unix.st_size

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
                | kb -> float_of_int kb /. 1024.
                | exception _ -> scan ())
          in
          scan ())

(* Gc.allocated_bytes counts the calling Domain only; quick_stat also
   covers Domains that have been joined, such as the DSE pool's workers. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let find_model name =
  match Gem_dnn.Model_zoo.find name with
  | Some m -> m
  | None -> invalid_arg ("perfbench: unknown model " ^ name)

(* --- counters ----------------------------------------------------------------- *)

(* Public counters of a finished SoC, summed over cores. [core.pe_cycles],
   [vm.hits] and [mem.l2_misses] only feed the ratios in {!derive}. *)
let soc_counts soc =
  let stats = Engine.stats (Soc.engine soc) in
  let over_stats f = List.fold_left (fun a s -> a + f s) 0 stats in
  let cores = Array.to_list (Soc.cores soc) in
  let over_cores f = List.fold_left (fun a c -> a + f c) 0 cores in
  let ctrl = Soc.controller in
  let cstats c = Gemmini.Controller.stats (ctrl c) in
  let dma c = Gemmini.Controller.dma (ctrl c) in
  let module H = Gem_vm.Hierarchy in
  let l2 = Soc.l2 soc and dram = Soc.dram soc in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("sim.acquires", over_stats (fun s -> s.Engine.stat_requests));
      ("sim.wait_cycles", over_stats (fun s -> s.Engine.stat_wait));
      ("core.insns", over_cores (fun c -> (cstats c).Gemmini.Controller.insns));
      ("core.macs", over_cores (fun c -> (cstats c).Gemmini.Controller.macs));
      ( "core.pe_cycles",
        over_cores (fun c ->
            Gemmini.Params.pes (Gemmini.Controller.params (ctrl c))
            * Gemmini.Controller.finish_time (ctrl c)) );
      ( "core.dma_bytes",
        over_cores (fun c -> Gemmini.Dma.bytes_in (dma c) + Gemmini.Dma.bytes_out (dma c))
      );
      ("core.dma_rows", over_cores (fun c -> Gemmini.Dma.row_requests (dma c)));
      ("vm.requests", over_cores (fun c -> H.requests (Soc.tlb c)));
      ("vm.walks", over_cores (fun c -> H.walks (Soc.tlb c)));
      ( "vm.hits",
        over_cores (fun c -> H.filter_hits (Soc.tlb c) + H.private_hits (Soc.tlb c)) );
      ("vm.stall_cycles", over_cores (fun c -> H.translation_stall_cycles (Soc.tlb c)));
      ("mem.l2_accesses", Gem_mem.Cache.accesses l2);
      ("mem.l2_misses", Gem_mem.Cache.misses l2);
      ("mem.dram_bytes", Gem_mem.Dram.bytes_read dram + Gem_mem.Dram.bytes_written dram);
      ("mem.dram_busy_cycles", Gem_mem.Dram.busy_cycles dram);
    ]

let add_counts a b =
  if a = [] then b
  else List.map2 (fun (k, x) (k', y) -> assert (k = k'); (k, x +. y)) a b

let derive counts ~per_op =
  let get k = Option.value ~default:0. (List.assoc_opt k counts) in
  let ratio n d = if get d = 0. then 0. else get n /. get d in
  let helpers = [ "core.pe_cycles"; "vm.hits"; "mem.l2_misses" ] in
  List.filter_map
    (fun (k, v) -> if List.mem k helpers then None else Some (k, v /. per_op))
    counts
  @
  if List.mem_assoc "core.macs" counts then
    [
      ("core.mesh_util", ratio "core.macs" "core.pe_cycles");
      ("vm.hit_rate", ratio "vm.hits" "vm.requests");
      ("mem.l2_miss_rate", ratio "mem.l2_misses" "mem.l2_accesses");
    ]
  else []

(* --- rounds and variants --------------------------------------------------------- *)

(* Quiet: nothing attached, the end-to-end configuration. Spanned: the
   benchmark's own spans around its calls. Profiled: the same calls as
   Quiet with the program's Gem_obs.Profile probes switched on. *)
type variant = Quiet | Spanned | Profiled

type env = {
  variant : variant;
  op : int;  (** id of the round's first operation *)
  measure : 'a. (unit -> 'a) -> 'a;
      (** host time and allocation of the calls that set throughput *)
  span : 'a. op:int -> string -> (unit -> 'a) -> 'a;
      (** a bench span in the Spanned variant; a plain call otherwise *)
}

type round = {
  work : float;  (** units of [work_per_s]: inferences, requests, points *)
  cycles : float;  (** simulated (or, analytic, estimated) cycles *)
  counts : (string * float) list;  (** must repeat exactly every round *)
  extras : (string * float) list;  (** per-round rates, reported as medians *)
}

type spec = {
  ops_per_round : int;
  setup : unit -> unit;
      (** timed [setup_reps] times before every round, so its median
          samples the same stretch of host time as the rounds *)
  setup_reps : int;
  round : env -> round;
}

type sample = {
  variant : variant;
  r : round;
  host_s : float;
  alloc_b : float;
  mutable speed : float;
      (** host speed over the round relative to the reference host
          ({!Reference}); below 1 in a slow stretch *)
}

type result = {
  samples : sample list;
  counts : (string * float) list;  (** the first round's *)
  setup_s : float list;  (** at the reference host's speed *)
}

(* Runs rounds for about [ctx.seconds] (at least one round). Traced
   runs cycle through all three variants in every round. The reference
   kernel runs before the first round and after every round; a round and
   its set-ups take the mean of the two runs that bracket them as the
   host's speed. *)
let drive ctx ~trace spec =
  let variants = if trace then [ Quiet; Spanned; Profiled ] else [ Quiet ] in
  let samples = ref [] and first_counts = ref None and next_op = ref 0 in
  let setup_s = ref [] in
  let setup () =
    let times = ref [] in
    for _ = 1 to spec.setup_reps do
      let t0 = now () in
      match spec.setup () with
      | () -> times := (now () -. t0) :: !times
      | exception e ->
          ctx.setup_ok <- false;
          prerr_endline ("perfbench: FAILED: set-up: " ^ Printexc.to_string e)
    done;
    !times
  in
  if trace then P.reset ();
  let one variant =
    let host = [| 0.; 0. |] in
    let measure f =
      if variant = Profiled then P.enable ();
      let a0 = allocated_bytes () and t0 = now () in
      let stop () =
        host.(0) <- host.(0) +. (now () -. t0);
        host.(1) <- host.(1) +. (allocated_bytes () -. a0);
        if variant = Profiled then P.disable ()
      in
      match f () with
      | v ->
          stop ();
          v
      | exception e ->
          stop ();
          raise e
    in
    let span ~op name f =
      if variant = Spanned then Spans.with_span ctx.spans ~op name f else f ()
    in
    let env = { variant; op = !next_op; measure; span } in
    let ops = spec.ops_per_round in
    next_op := !next_op + ops;
    ctx.attempted <- ctx.attempted + ops;
    match spec.round env with
    | exception Check_failed msg -> fail ctx ~ops msg
    | exception e -> fail ctx ~ops (Printexc.to_string e)
    | r -> (
        match !first_counts with
        | Some c when c <> r.counts ->
            fail ctx ~ops "counters differ from the first round's"
        | _ ->
            Printf.eprintf "perfbench: round %d: %.4f s, %g work\n%!"
              (List.length !samples) host.(0) r.work;
            first_counts := Some r.counts;
            samples :=
              { variant; r; host_s = host.(0); alloc_b = host.(1); speed = 1. } :: !samples)
  in
  (* A round that would end past the deadline by more than half its
     length is not started, so the window overshoots by at most that. *)
  let start = now () in
  let rec go rounds ref_before =
    let older = List.length !samples in
    let setups = setup () in
    List.iter one variants;
    let ref_after = Reference.time () in
    let speed = Reference.speed ~before:ref_before ~after:ref_after in
    let fresh = List.length !samples - older in
    List.iteri (fun i s -> if i < fresh then s.speed <- speed) !samples;
    setup_s := List.map (fun t -> t *. speed) setups @ !setup_s;
    Printf.eprintf "perfbench: host speed %.3f\n%!" speed;
    let elapsed = now () -. start in
    if elapsed +. (elapsed /. float_of_int rounds /. 2.) < ctx.seconds then
      go (rounds + 1) ref_after
  in
  go 1 (Reference.time ());
  {
    samples = List.rev !samples;
    counts = Option.value ~default:[] !first_counts;
    setup_s = !setup_s;
  }

let of_variant v samples = List.filter (fun s -> s.variant = v) samples
let total f samples = List.fold_left (fun a s -> a +. f s) 0. samples

(* Total over total: slow stretches of the host weigh by their length. *)
let per_host_s f samples =
  let host_s = total (fun s -> s.host_s) samples in
  if host_s = 0. then 0. else total f samples /. host_s

(* Median over rounds of a per-round rate at the reference host's speed. *)
let reference_rate f samples =
  median (List.map (fun s -> f s /. s.host_s /. s.speed) samples)

let end_to_end result =
  let q = of_variant Quiet result.samples in
  [
    ("setup_s", median result.setup_s);
    ("work_per_s", reference_rate (fun s -> s.r.work) q);
    ("sim_cycles_per_s", reference_rate (fun s -> s.r.cycles) q);
    ("alloc_mb", median (List.map (fun s -> s.alloc_b /. s.r.work /. 1e6) q));
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* Bench spans whose self time is a per-layer metric: (metric, span). *)
let span_metrics =
  [
    ("sw.lower_s", "sw.lower");
    ("soc.run_s", "soc.run");
    ("core.synth_s", "core.synth");
    ("sw.analytic_s", "sw.analytic");
    ("serve.run_s", "serve.run");
    ("persist.save_s", "persist.save");
    ("persist.load_s", "persist.load");
    ("dse.exec_cold_s", "dse.exec_cold");
    ("dse.exec_warm_s", "dse.exec_warm");
    ("dse.cache_store_s", "dse.cache_store");
    ("dse.cache_find_s", "dse.cache_find");
    ("export.finalize_s", "export.finalize");
    ("export.write_s", "export.write");
  ]

(* Every per-layer time and count is per workload operation. *)
let per_layer ctx spec { samples; counts; _ } =
  let ops v =
    float_of_int (List.length (of_variant v samples) * spec.ops_per_round)
  in
  let per v x = if ops v = 0. then 0. else x /. ops v in
  let phases = P.phases () in
  let phase f name =
    match List.find_opt (fun p -> p.P.ph_name = name) phases with
    | Some p -> per Profiled (f p)
    | None -> 0.
  in
  let self = phase (fun p -> p.P.ph_self_s) in
  let calls = phase (fun p -> float_of_int p.P.ph_calls) in
  let profiled_s = total (fun s -> s.host_s) (of_variant Profiled samples) in
  let throughput v = per_host_s (fun s -> s.r.work) (of_variant v samples) in
  let overhead v =
    if throughput v = 0. then 0. else ((throughput Quiet /. throughput v) -. 1.) *. 100.
  in
  let extras =
    match of_variant Quiet samples with
    | [] -> []
    | s :: _ as q ->
        List.map (fun (k, _) -> (k, median (List.map (fun s -> List.assoc k s.r.extras) q))) s.r.extras
  in
  derive counts ~per_op:(float_of_int spec.ops_per_round)
  @ List.map
      (fun (metric, span) -> (metric, per Spanned (Spans.total_self ctx.spans span)))
      span_metrics
  @ Hashtbl.fold (fun k v acc -> (k, per Spanned v) :: acc) ctx.acc []
  @ [
      ("sim.acquire_self_s", self P.acquire);
      ("sim.event_calls", calls P.event);
      ("sim.event_self_s", self P.event);
      ("core.dma_self_s", self P.dma);
      ("core.dma_alloc_mb", phase (fun p -> p.P.ph_alloc_bytes /. 1e6) P.dma);
      ("soc.dispatch_self_s", self P.dispatch);
      ("serve.schedule_self_s", self P.schedule);
      ("dse.evaluate_self_s", self P.dse);
      ("trace.quiet_work_per_s", throughput Quiet);
      ("trace.spans_work_per_s", throughput Spanned);
      ("trace.profiled_work_per_s", throughput Profiled);
      ("trace.spans_overhead_pct", overhead Spanned);
      ("trace.profile_overhead_pct", overhead Profiled);
      ("trace.coverage_pct", P.coverage_pct ~total_s:profiled_s phases);
    ]
  @ extras

(* --- the lowered, spanned inference path ------------------------------------------ *)

(* Builds the op stream with Runtime.plan_ops and times every forcing of
   it as lowering, so [sw.lower] (a summary span) splits from the
   [soc.run] span around Soc.run_program without holding the stream in
   memory. The stream is the one Runtime.run executes minus its
   zero-cost fault guards, so the cycle total must match. *)
let lowered_run ctx env ~op soc model =
  let core = Soc.core soc 0 in
  let ops = Runtime.plan_ops soc core model ~mode ~records:(ref []) in
  let meter = [| 0.; 0. |] and nodes = ref 0 in
  let rec timed s () =
    let t0 = now () and w0 = Gc.minor_words () in
    let node = s () in
    meter.(0) <- meter.(0) +. (now () -. t0);
    meter.(1) <- meter.(1) +. (Gc.minor_words () -. w0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        incr nodes;
        Seq.Cons (x, timed rest)
  in
  env.span ~op "soc.run" (fun () ->
      let cycles = Soc.run_program soc core (timed ops) in
      Spans.add_summary ctx.spans ~op "sw.lower" ~seconds:meter.(0);
      bump ctx "sw.lower_alloc_mb" (meter.(1) *. float_of_int (Sys.word_size / 8) /. 1e6);
      bump ctx "soc.ops" (float_of_int !nodes);
      cycles)

let check_cycles ctx model cycles =
  let name = model.Gem_dnn.Layer.model_name in
  match expected_int ctx [ "cycles"; name ] with
  | Some want -> check (cycles = want) "%s: %d cycles, expected %d" name cycles want
  | None -> raise (Check_failed (Printf.sprintf "%s: no expected cycles (got %d)" name cycles))

(* --- infer-1core ----------------------------------------------------------------- *)

let infer ctx ~trace =
  let names = [ "resnet50"; "mobilenetv2" ] in
  let setup () =
    ignore (Soc.create Soc_config.default);
    ignore (List.map find_model names)
  in
  let models = List.map find_model names in
  let round env =
    let cycles = ref 0 and counts = ref [] in
    List.iteri
      (fun k model ->
        let op = env.op + k in
        let soc = Soc.create Soc_config.default in
        let c =
          match env.variant with
          | Spanned ->
              env.measure (fun () ->
                  env.span ~op "infer.inference" (fun () -> lowered_run ctx env ~op soc model))
          | Quiet | Profiled ->
              env.measure (fun () -> (Runtime.run soc ~core:0 model ~mode).Runtime.r_total_cycles)
        in
        check_cycles ctx model c;
        cycles := !cycles + c;
        counts := add_counts !counts (soc_counts soc))
      models;
    { work = 2.; cycles = float_of_int !cycles; counts = !counts; extras = [] }
  in
  let spec = { ops_per_round = 2; setup; setup_reps = 17; round } in
  let result = drive ctx ~trace spec in
  if trace then per_layer ctx spec result else end_to_end result

(* --- serve-2core ----------------------------------------------------------------- *)

let serve_requests = 4

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let scenario ~trace_file ~last_arrival =
  {
    Serve.default with
    Serve.sv_model = "mobilenetv2";
    sv_scale = 8;
    sv_soc = Serve.config_for ~cores:2 Gemmini.Params.default;
    sv_arrival = Gem_serve.Arrival.Trace trace_file;
    sv_seed = 0;
    sv_batch = Gem_serve.Batch.Fixed 2;
    sv_duration_ms = float_of_int (last_arrival + 1000) /. 1e6;
    sv_warmup = true;
  }

let serve ctx ~trace =
  let arrivals = Inputs.arrivals ~seed:ctx.seed ~n:serve_requests in
  let stream name a =
    let path = Filename.concat ctx.scratch name in
    write_file path (Inputs.arrivals_text a);
    scenario ~trace_file:path
      ~last_arrival:(if a = [||] then 0 else a.(Array.length a - 1))
  in
  let snap = Filename.concat ctx.scratch "warm.snap" in
  (* Set-up: SoC creation, model scaling, the warm-up and the snapshot
     write, via Serve.run over an empty arrival stream. *)
  let empty = stream "empty.txt" [||] in
  let setup () = ignore (Serve.run ~warm_out:snap ~domains empty) in
  (* A run restored from the snapshot must report exactly what a run
     that warmed up directly reports. *)
  setup ();
  let first = stream "first.txt" (Array.sub arrivals 0 1) in
  (let direct = Serve.run ~domains first in
   let restored = Serve.run ~warm_in:snap ~domains first in
   if
     direct.Serve.sr_report <> restored.Serve.sr_report
     || direct.Serve.sr_completions <> restored.Serve.sr_completions
   then begin
     ctx.setup_ok <- false;
     prerr_endline "perfbench: FAILED: warm-restored serve report differs from a directly warmed run"
   end);
  let measured = stream "arrivals.txt" arrivals in
  let first_report = ref None in
  let round env =
    let op = env.op in
    let soc = ref None in
    let r =
      env.measure (fun () ->
          env.span ~op "serve.run" (fun () ->
              Serve.run ~attach:(fun s -> soc := Some s) ~warm_in:snap ~domains measured))
    in
    let rp = r.Serve.sr_report in
    check
      (rp.Gem_serve.Slo.rp_completed = rp.Gem_serve.Slo.rp_offered)
      "serve: %d of %d requests completed" rp.Gem_serve.Slo.rp_completed
      rp.Gem_serve.Slo.rp_offered;
    let p95 = rp.Gem_serve.Slo.rp_latency.Gem_util.Stats.Histogram.p95 in
    if ctx.default_seed then begin
      let want_p95 = Option.bind (expected ctx [ "serve"; "p95_cycles" ]) J.to_float in
      check
        (expected_int ctx [ "serve"; "completed" ] = Some rp.Gem_serve.Slo.rp_completed
        && want_p95 = Some p95)
        "serve: completed %d, p95 %.17g cycles differ from expected.json"
        rp.Gem_serve.Slo.rp_completed p95
    end;
    (match !first_report with
    | None -> first_report := Some rp
    | Some first -> check (first = rp) "serve: report differs from the first run's");
    if env.variant = Spanned then begin
      let meta, payload =
        match env.span ~op "persist.load" (fun () -> Gem_persist.Persist.load ~path:snap) with
        | Ok v -> v
        | Error e -> raise (Check_failed ("persist: " ^ e))
      in
      let copy = Filename.concat ctx.scratch "warm-copy.snap" in
      env.span ~op "persist.save" (fun () -> Gem_persist.Persist.save ~path:copy ~meta ~payload);
      check (file_size copy = file_size snap) "persist: re-saved snapshot changed size";
      (* The Chrome-trace path: one restored request with a span-recording
         collector attached, then finalize and write, outside the
         measured run. *)
      let traced = ref None in
      ignore
        (Serve.run
           ~attach:(fun s -> traced := Some (s, Export.attach (Soc.engine s)))
           ~warm_in:snap ~domains first);
      let tsoc, collector =
        match !traced with Some v -> v | None -> raise (Check_failed "export: no SoC")
      in
      let path = Filename.concat ctx.scratch "trace.json" in
      env.span ~op "export.finalize" (fun () -> Export.finalize collector);
      env.span ~op "export.write" (fun () -> Export.write_chrome_file collector path);
      bump ctx "export.spans" (float_of_int (Gem_sim.Span.count (Export.recorder collector)));
      bump ctx "export.dropped" (float_of_int (Engine.dropped_events (Soc.engine tsoc)));
      bump ctx "export.trace_bytes" (float_of_int (file_size path));
      Sys.remove path
    end;
    let soc = match !soc with Some s -> s | None -> raise (Check_failed "serve: no SoC") in
    {
      work = float_of_int rp.Gem_serve.Slo.rp_completed;
      cycles = float_of_int rp.Gem_serve.Slo.rp_horizon;
      counts =
        soc_counts soc
        @ [
            ("serve.completed", float_of_int rp.Gem_serve.Slo.rp_completed);
            ("serve.batches", float_of_int (List.length r.Serve.sr_dispatches));
            ("persist.snapshot_bytes", float_of_int (file_size snap));
          ];
      extras = [];
    }
  in
  let spec = { ops_per_round = 1; setup; setup_reps = 1; round } in
  let result = drive ctx ~trace spec in
  if trace then
    (* Serving dispatches unguarded session streams, so each soc.dispatch
       probe call is one op. *)
    let dispatch =
      List.find_opt (fun p -> p.P.ph_name = P.dispatch) (P.phases ())
      |> Option.fold ~none:0. ~some:(fun p -> float_of_int p.P.ph_calls)
    in
    let profiled = List.length (of_variant Profiled result.samples) in
    ("soc.ops", if profiled = 0 then 0. else dispatch /. float_of_int profiled)
    :: per_layer ctx spec result
  else end_to_end result

(* --- sweep-analytic ---------------------------------------------------------------- *)

let per_stratum = 8

let point_of (d : Inputs.design) =
  let accel =
    {
      Gemmini.Params.default with
      mesh_rows = d.Inputs.dim;
      mesh_cols = d.Inputs.dim;
      tile_rows = 1;
      tile_cols = 1;
      sp_capacity_bytes = d.Inputs.sp_kb * 1024;
      acc_capacity_bytes = d.Inputs.acc_kb * 1024;
    }
  in
  let soc =
    Soc_config.default
    |> Soc_config.with_l2_size (d.Inputs.l2_kb * 1024)
    |> Soc_config.map_tlb (fun c ->
           { c with Gem_vm.Hierarchy.private_entries = d.Inputs.tlb_entries })
  in
  Point.make ~label:(String.trim (Inputs.design_text d)) ~soc ~model:d.Inputs.network
    ~scale:1 ~mode ~backend:Gem_sw.Backend.Analytic ()
  |> Point.with_accel accel

let outcome_text o = J.to_string (Gem_dse.Outcome.to_json o)

let sweep ctx ~trace =
  let dir = ref 0 in
  let fresh_dir () =
    incr dir;
    let d = Filename.concat ctx.scratch (Printf.sprintf "cache-%d" !dir) in
    Unix.mkdir d 0o755;
    d
  in
  let make_points () = Array.map point_of (Inputs.designs ~seed:ctx.seed ~per_stratum) in
  let setup () =
    ignore (make_points ());
    remove_tree (fresh_dir ())
  in
  let points = make_points () in
  let n = Array.length points in
  let round env =
    let cache_dir = fresh_dir () in
    let cache = Gem_dse.Cache.create ~dir:cache_dir () in
    let run () = Exec.run ~jobs:domains ~cache:(Some cache) points in
    let cold = env.measure (fun () -> env.span ~op:env.op "dse.exec_cold" run) in
    let t0 = now () in
    let warm = env.span ~op:env.op "dse.exec_warm" run in
    let warm_s = now () -. t0 in
    check
      (cold.Exec.simulated = n && warm.Exec.cached = n)
      "sweep: %d simulated cold, %d cached warm, of %d points" cold.Exec.simulated
      warm.Exec.cached n;
    let texts r = Array.map (fun (_, o) -> outcome_text o) r.Exec.results in
    let cold_t = texts cold and warm_t = texts warm in
    let differ = ref 0 in
    Array.iteri (fun i t -> if t <> warm_t.(i) then incr differ) cold_t;
    check (!differ = 0) "sweep: %d warm outcomes differ from cold" !differ;
    if ctx.default_seed then begin
      let digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list cold_t))) in
      let want = Option.bind (expected ctx [ "sweep"; "digest" ]) J.to_str in
      check (want = Some digest) "sweep: outcome digest %s differs from expected.json" digest
    end;
    let cache_bytes =
      Array.fold_left (fun a p -> a + file_size (Gem_dse.Cache.path_of cache p)) 0 points
    in
    if env.variant = Spanned then begin
      (* One call per layer per point, outside the measured pass. *)
      let side_dir = fresh_dir () in
      let side = Gem_dse.Cache.create ~dir:side_dir () in
      Array.iteri
        (fun i (p, outcome) ->
          let op = env.op + i in
          env.span ~op "dse.point" (fun () ->
              let core = List.hd p.Point.soc.Soc_config.cores in
              let accel = core.Soc_config.accel in
              let model = find_model p.Point.model in
              env.span ~op "core.synth" (fun () ->
                  ignore (Gemmini.Synthesis.estimate ~host:p.Point.synth_host accel));
              let a0 = allocated_bytes () in
              env.span ~op "sw.lower" (fun () ->
                  ignore (Gem_sw.Lower.plan accel ~cpu:core.Soc_config.cpu ~mode model));
              bump ctx "sw.lower_alloc_mb" ((allocated_bytes () -. a0) /. 1e6);
              env.span ~op "sw.analytic" (fun () ->
                  ignore
                    (Gem_sw.Backend_analytic.estimate
                       (Gem_sw.Backend.request ~config:p.Point.soc [| (model, mode) |])));
              env.span ~op "dse.cache_store" (fun () -> Gem_dse.Cache.store side p outcome);
              let found = env.span ~op "dse.cache_find" (fun () -> Gem_dse.Cache.find side p) in
              check
                (Option.map outcome_text found = Some cold_t.(i))
                "sweep: cache round trip changed point %d" i))
        cold.Exec.results;
      remove_tree side_dir
    end;
    remove_tree cache_dir;
    {
      work = float_of_int n;
      cycles =
        Array.fold_left
          (fun a (_, o) -> a +. float_of_int o.Gem_dse.Outcome.total_cycles)
          0. cold.Exec.results;
      counts =
        [
          ("dse.simulated", float_of_int cold.Exec.simulated);
          ("dse.cached", float_of_int warm.Exec.cached);
          ("dse.cache_bytes", float_of_int cache_bytes);
        ];
      extras = [ ("dse.cached_points_per_s", float_of_int n /. warm_s) ];
    }
  in
  let spec = { ops_per_round = n; setup; setup_reps = 3; round } in
  let result = drive ctx ~trace spec in
  if trace then per_layer ctx spec result else end_to_end result

let all =
  [
    ("infer-1core", infer);
    ("serve-2core", serve);
    ("sweep-analytic", sweep);
  ]
