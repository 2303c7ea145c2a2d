(* The command-line face of the generator:

     gemmini_cli describe   [--preset NAME | sizing flags]
     gemmini_cli header     [...]          -- emit gemmini_params.h
     gemmini_cli synth      [...]          -- area/fmax/power estimate
     gemmini_cli run        --model NAME   -- simulate an inference
     gemmini_cli sweep      --model NAME   -- sweep array sizes
     gemmini_cli experiment --id fig7      -- reproduce a paper figure *)

open Cmdliner
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Profile = Gem_obs.Profile
module Metrics = Gem_obs.Metrics

(* --- observability flags ------------------------------------------------------ *)

(* Self-profile and metrics output are deliberately stderr/file-only in
   run/serve/sweep: stdout carries byte-gated simulation results, and
   wall-clock numbers must never leak into them. *)

let self_profile_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "self-profile" ] ~docv:"FILE"
        ~doc:
          "Profile the simulator itself: attribute host wall time and \
           allocation to engine/runtime phases, write the ranked JSON \
           report to $(docv) and print the table to stderr. Simulated \
           cycle counts are unaffected (checked by the test suite and a \
           CI byte-identity gate).")

let metrics_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Snapshot the unified metrics registry (engine counters, \
           runtime results, serving SLO/occupancy series, DSE tallies) \
           to $(docv) after the run: CSV when $(docv) ends in .csv, \
           pretty JSON otherwise.")

(* Runs [f] under the self-profiler when a report file is requested. The
   report is written from a [finally] so a trapped run still shows where
   its host time went. *)
let with_self_profile self_profile f =
  match self_profile with
  | None -> f ()
  | Some file ->
      Profile.reset ();
      Profile.enable ();
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          Profile.disable ();
          let total_s = Unix.gettimeofday () -. t0 in
          Profile.write_file ~total_s file;
          prerr_string (Profile.render ~total_s ());
          Printf.eprintf "[profile] wrote %s\n%!" file)
        f

(* A trap the fault policy does not recover from ends the run: report it
   as the run's outcome (exit 1), not as an internal error. *)
let abort_on_trap f =
  try f ()
  with Gem_sim.Fault.Trap fault ->
    Printf.eprintf "[run] aborted: %s\n%!" (Gem_sim.Fault.to_string fault);
    exit 1

(* A missing directory under an output path, or a missing input file, is
   a usage error of the subcommand: one "[tag]" line and exit 2, never an
   uncaught exception. A self-profile report that cannot be written fails
   inside [with_self_profile]'s [finally], hence the second pattern. *)
let on_io_error tag f =
  try f ()
  with Sys_error msg | Fun.Finally_raised (Sys_error msg) ->
    Printf.eprintf "[%s] %s\n%!" tag msg;
    exit 2

let write_metrics reg = function
  | None -> ()
  | Some file ->
      Metrics.write_file reg file;
      Printf.eprintf "[metrics] wrote %s (%d source(s))\n%!" file
        (Metrics.size reg)

(* --- shared parameter flags -------------------------------------------------- *)

(* Counts, divisors and job counts have a floor: a value below it is a
   usage error at parse time, not an exception deep in the run. *)
let int_at_least lo ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1 ~what:"positive"
let non_neg_int = int_at_least 0 ~what:"non-negative"

let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "expected a probability in [0, 1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Durations, rates and time budgets: a finite float above zero. *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0. -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let preset =
  let parse s =
    match String.lowercase_ascii s with
    | "default" -> Ok Gemmini.Params.default
    | "edge" -> Ok Gemmini.Params.edge
    | "cloud" -> Ok Gemmini.Params.cloud
    | "tpu256" -> Ok (Gemmini.Params.tpu_like ~pes:256)
    | "nvdla256" -> Ok (Gemmini.Params.nvdla_like ~pes:256)
    | other -> Error (`Msg (Printf.sprintf "unknown preset %S" other))
  in
  let print fmt p = Format.fprintf fmt "%s" (Gemmini.Params.describe p) in
  Arg.conv (parse, print)

let params_term =
  let open Term in
  let preset_arg =
    Arg.(value & opt preset Gemmini.Params.default
         & info [ "preset" ] ~doc:"Instance preset: default, edge, cloud, tpu256, nvdla256.")
  in
  let dim = Arg.(value & opt (some pos_int) None & info [ "dim" ] ~doc:"Square array dimension (PE rows).") in
  let sp = Arg.(value & opt (some pos_int) None & info [ "sp-kb" ] ~doc:"Scratchpad capacity in KiB.") in
  let acc = Arg.(value & opt (some pos_int) None & info [ "acc-kb" ] ~doc:"Accumulator capacity in KiB.") in
  let im2col = Arg.(value & opt (some bool) None & info [ "im2col" ] ~doc:"Include the im2col block.") in
  let build p dim sp acc im2col =
    let p = match dim with Some d -> { p with Gemmini.Params.mesh_rows = d; mesh_cols = d; tile_rows = 1; tile_cols = 1 } | None -> p in
    let p = match sp with Some kb -> { p with Gemmini.Params.sp_capacity_bytes = kb * 1024 } | None -> p in
    let p = match acc with Some kb -> { p with Gemmini.Params.acc_capacity_bytes = kb * 1024 } | None -> p in
    let p = match im2col with Some b -> { p with Gemmini.Params.has_im2col = b } | None -> p in
    match Gemmini.Params.validate p with
    | Ok () -> `Ok p
    | Error errs -> `Error (false, String.concat "; " errs)
  in
  ret (const build $ preset_arg $ dim $ sp $ acc $ im2col)

let find_model s =
  match Gem_dnn.Model_zoo.find s with
  | Some m -> Ok m
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown model %S (available: %s)" s
             (String.concat ", " Gem_dnn.Model_zoo.names)))

(* A zoo network's name, checked at parse time. *)
let model_name =
  let parse s = Result.map (fun _ -> s) (find_model s) in
  Arg.conv (parse, Format.pp_print_string)

let model_term =
  let print fmt m = Format.fprintf fmt "%s" m.Gem_dnn.Layer.model_name in
  Arg.(
    value
    & opt (conv (find_model, print)) Gem_dnn.Model_zoo.resnet50
    & info [ "model" ] ~doc:"DNN to run (resnet50, alexnet, squeezenet1.1, mobilenetv2, bert-base-seq128).")

let scale_term =
  Arg.(value & opt pos_int 1 & info [ "scale" ] ~doc:"Channel-scale divisor for faster runs.")

let cores_term =
  Arg.(
    value & opt pos_int 1
    & info [ "cores" ]
        ~doc:
          "Accelerator cores; with more than one, every core runs the \
           model in parallel.")

let jobs_term =
  Arg.(
    value & opt non_neg_int 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Simulation worker domains. 1 (the default) runs serially; 0 \
           uses the machine's recommended domain count. Results are \
           ordered by point, so any job count produces identical output.")

let trace_out_term ~doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let seed_term ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

(* --- subcommands --------------------------------------------------------------- *)

let describe_cmd =
  let run p =
    print_endline (Gemmini.Params.describe p);
    print_endline (Gem_util.Table.render (Gem_dnn.Model_zoo.summary_table ()))
  in
  Cmd.v (Cmd.info "describe" ~doc:"Describe an accelerator instance and the model zoo.")
    Term.(const run $ params_term)

let header_cmd =
  let run p = print_string (Gemmini.Header_gen.generate p) in
  Cmd.v (Cmd.info "header" ~doc:"Emit the generated C header for an instance.")
    Term.(const run $ params_term)

let synth_cmd =
  let run p =
    let r = Gemmini.Synthesis.estimate p in
    print_string (Gemmini.Floorplan.render r)
  in
  Cmd.v (Cmd.info "synth" ~doc:"Analytical synthesis: area, fmax, power, floorplan.")
    Term.(const run $ params_term)

let backend_conv =
  let parse s =
    match Gem_sw.Backend.kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown backend %S (available: %s)" s
               (String.concat ", " Gem_sw.Backends.names)))
  in
  let print fmt k = Format.fprintf fmt "%s" (Gem_sw.Backend.kind_name k) in
  Arg.conv (parse, print)

let backend_term =
  Arg.(
    value
    & opt backend_conv Gem_sw.Backend.Cycle
    & info [ "backend" ]
        ~doc:
          "Execution backend: cycle (event-driven cycle-accurate \
           simulation, the default) or analytic (closed-form latency \
           estimator, orders of magnitude faster, cross-validated in CI).")

let policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "abort" -> Ok Runtime.Abort
    | "retry" | "retry-map" -> Ok Runtime.Retry_map
    | "degrade" -> Ok Runtime.Degrade
    | "resume" | "resume-checkpoint" -> Ok Runtime.Resume_checkpoint
    | other -> Error (`Msg (Printf.sprintf "unknown fault policy %S" other))
  in
  let print fmt p = Format.fprintf fmt "%s" (Runtime.policy_desc p) in
  Arg.conv (parse, print)

let run_cmd =
  let run p backend model scale im2col_on_accel profile inject_seed inject_rate
      policy watchdog cores trace_out trace_format checkpoint_every
      checkpoint_out restore max_replays self_profile metrics_out =
    let model = Gem_dnn.Model_zoo.scale_model ~factor:scale model in
    let core_cfg = { Soc_config.default_core with accel = p } in
    let config =
      { Soc_config.default with cores = List.init cores (fun _ -> core_cfg) }
    in
    let mode = Runtime.Accel { im2col_on_accel } in
    let print_header () =
      Printf.printf "%s on %s%s%s\n" model.Gem_dnn.Layer.model_name
        (Gemmini.Params.describe p)
        (if cores > 1 then Printf.sprintf " x %d cores" cores else "")
        (match backend with
        | Gem_sw.Backend.Cycle -> ""
        | k -> Printf.sprintf " [%s backend]" (Gem_sw.Backend.kind_name k))
    in
    let print_results results =
      let horizon = ref 0 in
      Array.iter
        (fun r ->
          horizon := max !horizon r.Runtime.r_total_cycles;
          (* Dual-core runs label every row with its core so the outputs
             line up with the core-prefixed component names below. *)
          let tag =
            if cores > 1 then Printf.sprintf "core%d: " r.Runtime.r_core else ""
          in
          Printf.printf "%stotal %s cycles = %.2f FPS at 1 GHz\n" tag
            (Gem_util.Table.fmt_int r.Runtime.r_total_cycles)
            (Gem_sim.Time.fps ~freq_ghz:1.0
               ~cycles_per_item:r.Runtime.r_total_cycles);
          List.iter
            (fun (k, c) ->
              Printf.printf "  %s%-12s %s cycles\n" tag
                (Gem_dnn.Layer.class_name k)
                (Gem_util.Table.fmt_int c))
            (Runtime.cycles_by_class r);
          if r.Runtime.r_faults <> [] then begin
            Printf.printf "%sfaults handled (%s policy): %d\n" tag
              (Runtime.policy_desc policy)
              (List.length r.Runtime.r_faults);
            List.iter
              (fun fr ->
                Printf.printf "  %s%-8s %-24s %s\n" tag fr.Runtime.fr_action
                  fr.Runtime.fr_layer
                  (Gem_sim.Fault.to_string fr.Runtime.fr_fault))
              r.Runtime.r_faults
          end)
        results;
      !horizon
    in
    let persisting =
      checkpoint_every <> None || checkpoint_out <> None || restore <> None
      || policy = Runtime.Resume_checkpoint
    in
    let reg = Metrics.create () in
    on_io_error "run" @@ fun () ->
    abort_on_trap @@ fun () ->
    with_self_profile self_profile @@ fun () ->
    match backend with
    | Gem_sw.Backend.Analytic ->
        if inject_seed <> None || trace_out <> None || profile then
          prerr_endline
            "[run] note: --inject-seed/--trace-out/--profile are \
             cycle-engine features; the analytic backend ignores them";
        if persisting then begin
          prerr_endline
            "[run] checkpoint/restore needs the cycle backend (the \
             analytic estimator has no simulation state to snapshot)";
          exit 2
        end;
        let rq =
          Gem_sw.Backend.request ~policy ?watchdog ~config
            (Array.init cores (fun _ -> (model, mode)))
        in
        let results = Gem_sw.Backend_analytic.run rq in
        print_header ();
        ignore (print_results results);
        Array.iter (Runtime.register_metrics reg) results;
        write_metrics reg metrics_out
    | Gem_sw.Backend.Cycle when persisting ->
        if cores > 1 then begin
          prerr_endline "[run] checkpoint/restore is single-core for now";
          exit 2
        end;
        if trace_out <> None || profile then
          prerr_endline
            "[run] note: --trace-out/--profile attach before the run; the \
             checkpointing driver builds its own SoC, so they are ignored \
             here";
        let restore_ck =
          match restore with
          | None -> None
          | Some path -> (
              match Gem_persist.Persist.load_checkpoint ~path with
              | Ok ck -> Some ck
              | Error msg ->
                  Printf.eprintf "[persist] cannot restore: %s\n%!" msg;
                  exit 2)
        in
        let outcome =
          Gem_persist.Persist.run ~policy ?watchdog
            ?inject:(Option.map (fun s -> (s, inject_rate)) inject_seed)
            ?checkpoint_every ?checkpoint_out ?restore:restore_ck
            ~max_replays ~config ~core:0 model ~mode
        in
        print_header ();
        ignore (print_results [| outcome.Gem_persist.Persist.o_result |]);
        Option.iter
          (Printf.eprintf "[persist] resumed at layer %d\n%!")
          outcome.Gem_persist.Persist.o_resumed_at;
        if outcome.Gem_persist.Persist.o_checkpoints > 0 then
          Printf.eprintf "[persist] %d checkpoint(s)%s\n%!"
            outcome.Gem_persist.Persist.o_checkpoints
            (match checkpoint_out with
            | Some f -> Printf.sprintf " -> %s" f
            | None -> " (in-memory)");
        if outcome.Gem_persist.Persist.o_replays > 0 then
          Printf.eprintf "[persist] recovered via %d replay(s)\n%!"
            outcome.Gem_persist.Persist.o_replays;
        Runtime.register_metrics reg outcome.Gem_persist.Persist.o_result;
        write_metrics reg metrics_out
    | Gem_sw.Backend.Cycle ->
    let soc = Soc.create config in
    (match inject_seed with
    | Some seed -> Soc.arm_injection soc ~seed ~rate:inject_rate
    | None -> ());
    (* The trace collector doubles as the profile's layer breakdown; it
       never perturbs simulated timing. *)
    let collector =
      if trace_out <> None || profile then
        Some (Gem_sim.Export.attach (Soc.engine soc))
      else None
    in
    let rq =
      Gem_sw.Backend.request ~policy ?watchdog ~config
        (Array.init cores (fun _ -> (model, mode)))
    in
    let results = Gem_sw.Backend_cycle.run_on soc rq in
    print_header ();
    let horizon = ref (print_results results) in
    Gem_sim.Engine.register_metrics (Soc.engine soc) reg;
    Array.iter (Runtime.register_metrics reg) results;
    write_metrics reg metrics_out;
    match collector with
    | None -> ()
    | Some c ->
        Gem_sim.Export.finalize c;
        (match trace_out with
        | Some file ->
            (match trace_format with
            | `Chrome -> Gem_sim.Export.write_chrome_file c file
            | `Report ->
                let oc = open_out file in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () -> output_string oc (Gem_sim.Export.report c)));
            Printf.eprintf "[trace] wrote %s (%s)\n%!" file
              (match trace_format with
              | `Chrome -> "chrome"
              | `Report -> "report")
        | None -> ());
        if profile then begin
          print_newline ();
          Gem_util.Table.print
            (Gem_sim.Engine.utilization_table (Soc.engine soc)
               ~horizon:!horizon ());
          print_newline ();
          print_string (Gem_sim.Export.report c)
        end
  in
  let im2col =
    Arg.(value & opt bool true & info [ "accel-im2col" ] ~doc:"Use the hardware im2col block.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the simulation engine's per-component utilization/wait \
             table after the run.")
  in
  let inject_seed =
    Arg.(
      value & opt (some int) None
      & info [ "inject-seed" ]
          ~doc:
            "Arm deterministic fault injection with this seed (same seed, \
             same fault trace).")
  in
  let inject_rate =
    Arg.(
      value & opt probability 0.01
      & info [ "inject-rate" ]
          ~doc:"Per-event fault probability when injection is armed.")
  in
  let policy =
    Arg.(
      value & opt policy_conv Runtime.Abort
      & info [ "fault-policy" ] ~doc:"Trap recovery: abort, retry or degrade.")
  in
  let watchdog =
    Arg.(
      value & opt (some non_neg_int) None
      & info [ "watchdog" ] ~doc:"Max cycles any single layer may spend.")
  in
  let trace_out =
    trace_out_term ~doc:"Write an execution trace of the run to $(docv)."
  in
  let trace_format =
    let fmt = Arg.enum [ ("chrome", `Chrome); ("report", `Report) ] in
    Arg.(
      value & opt fmt `Chrome
      & info [ "trace-format" ]
          ~doc:
            "Trace format: chrome (Perfetto-loadable Trace Event JSON, the \
             default) or report (plain-text hierarchical profile).")
  in
  let checkpoint_every =
    Arg.(
      value & opt (some pos_int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Snapshot the full simulation state after every $(docv)-th \
             layer (cycle backend, single core).")
  in
  let checkpoint_out =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-out" ] ~docv:"FILE"
          ~doc:
            "Persist each snapshot to $(docv) (atomic write; the file \
             always holds the latest complete checkpoint).")
  in
  let restore =
    Arg.(
      value & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by --checkpoint-out. The \
             resumed run's remaining cycles, profile and trace are \
             byte-identical to the uninterrupted run's.")
  in
  let max_replays =
    Arg.(
      value & opt non_neg_int 3
      & info [ "max-replays" ]
          ~doc:
            "With --fault-policy resume-checkpoint: recovery replays \
             allowed before the trap propagates.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a DNN inference on an SoC.")
    Term.(
      const run $ params_term $ backend_term $ model_term $ scale_term
      $ im2col $ profile $ inject_seed $ inject_rate $ policy $ watchdog
      $ cores_term $ trace_out $ trace_format $ checkpoint_every
      $ checkpoint_out $ restore $ max_replays $ self_profile_term
      $ metrics_out_term)

let sweep_cmd =
  let run model scale backend jobs cache_dir no_cache out self_profile
      metrics_out =
    on_io_error "dse" @@ fun () ->
    let name = model.Gem_dnn.Layer.model_name in
    let base = Gem_dse.Point.make ~model:name ~scale ~backend () in
    let dim_axis =
      Gem_dse.Sweep.ints "dim"
        (fun dim p ->
          Gem_dse.Point.with_accel
            { Gemmini.Params.default with mesh_rows = dim; mesh_cols = dim }
            p)
        [ 4; 8; 16; 32 ]
    in
    let points = Gem_dse.Sweep.cartesian ~base [ dim_axis ] in
    let cache =
      if no_cache then None else Some (Gem_dse.Cache.create ~dir:cache_dir ())
    in
    let rr =
      with_self_profile self_profile (fun () ->
          Gem_dse.Exec.run ~jobs ~cache points)
    in
    (match metrics_out with
    | None -> ()
    | Some _ ->
        let reg = Metrics.create () in
        Gem_dse.Exec.register_metrics reg rr;
        write_metrics reg metrics_out);
    Printf.eprintf "[dse] %d point(s): %d simulated, %d cached (jobs %d)\n%!"
      (Array.length points) rr.Gem_dse.Exec.simulated rr.Gem_dse.Exec.cached
      jobs;
    match out with
    | `Json -> print_string (Gem_dse.Report.json_string rr.Gem_dse.Exec.results)
    | `Csv -> print_string (Gem_dse.Report.csv rr.Gem_dse.Exec.results)
    | `Table ->
        let display_name =
          if scale = 1 then name else Printf.sprintf "%s/%d" name scale
        in
        let t =
          Gem_util.Table.create
            ~title:(Printf.sprintf "Array-size sweep (%s)" display_name)
            [ "DIM"; "Cycles"; "FPS@1GHz"; "Area (mm^2)"; "fmax (GHz)" ]
        in
        List.iter
          (fun i -> Gem_util.Table.set_align t i Gem_util.Table.Right)
          [ 1; 2; 3; 4 ];
        Array.iter
          (fun (p, o) ->
            Gem_util.Table.add_row t
              [
                p.Gem_dse.Point.label;
                Gem_util.Table.fmt_int o.Gem_dse.Outcome.total_cycles;
                Gem_util.Table.fmt_f ~dec:1 (Gem_dse.Report.fps_1ghz o);
                Gem_util.Table.fmt_f ~dec:2
                  (o.Gem_dse.Outcome.total_area_um2 /. 1e6);
                Gem_util.Table.fmt_f ~dec:2 o.Gem_dse.Outcome.fmax_ghz;
              ])
          rr.Gem_dse.Exec.results;
        Gem_util.Table.print t
  in
  let cache_dir =
    Arg.(
      value & opt string "_dse_cache"
      & info [ "cache-dir" ]
          ~doc:"Persistent result-cache directory (content-addressed).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Simulate every point; touch no cache.")
  in
  let out =
    let fmt =
      Arg.enum [ ("table", `Table); ("json", `Json); ("csv", `Csv) ]
    in
    Arg.(
      value & opt fmt `Table
      & info [ "out" ] ~doc:"Output format: table (default), json or csv.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep spatial-array sizes for a workload (parallel and cached, \
          see --jobs and --cache-dir; resumable: rerun with the same \
          --cache-dir).")
    Term.(
      const run $ model_term $ scale_term $ backend_term $ jobs_term $ cache_dir
      $ no_cache $ out $ self_profile_term $ metrics_out_term)

(* --- fuzz: differential testing against the golden model -------------------- *)

let fuzz_cmd =
  let run seed count shrink self_test =
    if self_test then begin
      (* Prove detection power: each deliberate golden-model bug must be
         caught within the case budget. *)
      let undetected =
        List.filter
          (fun mutation ->
            let detected = ref false in
            let i = ref 0 in
            while (not !detected) && !i < count do
              let case = Gem_check.Gen.case ~force_invalid:false ~seed:(seed + !i) () in
              let report = Gem_check.Diff.run_case ~mutate:mutation case in
              if report.Gem_check.Diff.divergences <> [] then detected := true;
              incr i
            done;
            Printf.printf "self-test %-18s %s\n"
              (Gem_check.Golden.mutation_name mutation)
              (if !detected then
                 Printf.sprintf "detected (seed %d)" (seed + !i - 1)
               else "NOT DETECTED");
            not !detected)
          Gem_check.Golden.mutations
      in
      if undetected <> [] then exit 1
    end
    else begin
      let failures = ref 0 and invalid = ref 0 in
      for i = 0 to count - 1 do
        let case = Gem_check.Gen.case ~seed:(seed + i) () in
        if case.Gem_check.Gen.invalid then incr invalid;
        let report = Gem_check.Diff.run_case case in
        if report.Gem_check.Diff.divergences <> [] then begin
          incr failures;
          Printf.printf "seed %d: %d divergence(s)\n" (seed + i)
            (List.length report.Gem_check.Diff.divergences);
          List.iter (Printf.printf "  %s\n") report.Gem_check.Diff.divergences;
          let case =
            if shrink then begin
              let small = Gem_check.Shrink.minimize_case case in
              Printf.printf "  shrunk to %d command(s):\n"
                (List.length small.Gem_check.Gen.program);
              small
            end
            else case
          in
          if shrink then
            List.iter
              (fun cmd -> Printf.printf "    %s\n" (Gemmini.Isa.to_string cmd))
              case.Gem_check.Gen.program;
          Printf.printf "  repro: %s\n" (Gem_check.Diff.repro case)
        end
      done;
      Printf.printf "fuzz: %d programs (%d invalid-mode), %d divergence(s), seeds %d..%d\n"
        count !invalid !failures seed (seed + count - 1);
      if !failures > 0 then exit 1
    end
  in
  let seed = seed_term ~default:1 ~doc:"First case seed; case $(i) uses seed + i." in
  let count = Arg.(value & opt pos_int 100 & info [ "count" ] ~doc:"Cases to run (self-test: per-mutation budget).") in
  let shrink = Arg.(value & flag & info [ "shrink" ] ~doc:"Minimize each failing program (ddmin) and print it.") in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Mutate the golden model instead of fuzzing: every deliberate \
             bug must be detected, proving the harness has teeth.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random ISA programs on the cycle-accurate \
          SoC vs an independent golden architectural model.")
    Term.(const run $ seed $ count $ shrink $ self_test)

(* --- xval: analytic backend vs cycle-accurate engine ------------------------- *)

let xval_cmd =
  let run models scale budget_file out =
    on_io_error "xval" @@ fun () ->
    (* The budget is read before the (long) validation, so a bad path
       fails at once. *)
    let budget =
      Option.map
        (fun file ->
          match Gem_dse.Xval.load_budget file with
          | Ok budget -> (file, budget)
          | Error msg ->
              Printf.eprintf "[xval] cannot load budget %s: %s\n%!" file msg;
              exit 2)
        budget_file
    in
    let models =
      match models with
      | [] -> Gem_dse.Xval.default_models
      | l -> l
    in
    let report = Gem_dse.Xval.validate ~models ~scale () in
    let t =
      Gem_util.Table.create
        ~title:(Printf.sprintf "Backend cross-validation (scale %d)" scale)
        [ "Model"; "Cycle"; "Analytic"; "Err"; "Speedup" ]
    in
    List.iter (fun i -> Gem_util.Table.set_align t i Gem_util.Table.Right) [ 1; 2; 3; 4 ];
    List.iter
      (fun (n : Gem_dse.Xval.network_report) ->
        Gem_util.Table.add_row t
          [
            n.Gem_dse.Xval.xn_model;
            Gem_util.Table.fmt_int n.Gem_dse.Xval.xn_cycle_total;
            Gem_util.Table.fmt_int n.Gem_dse.Xval.xn_analytic_total;
            Printf.sprintf "%+.1f%%" (100. *. n.Gem_dse.Xval.xn_rel_err);
            Printf.sprintf "%.0fx" n.Gem_dse.Xval.xn_speedup;
          ])
      report.Gem_dse.Xval.x_networks;
    Gem_util.Table.print t;
    Printf.printf "max |err| %.1f%%  mean |err| %.1f%%  min speedup %.0fx\n"
      (100. *. report.Gem_dse.Xval.x_max_abs_err)
      (100. *. report.Gem_dse.Xval.x_mean_abs_err)
      report.Gem_dse.Xval.x_min_speedup;
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc
              (Gem_util.Jsonx.to_string ~pretty:true
                 (Gem_dse.Xval.report_to_json report));
            output_char oc '\n');
        Printf.eprintf "[xval] wrote %s\n%!" file);
    match budget with
    | None -> ()
    | Some (file, budget) -> (
        match Gem_dse.Xval.check report budget with
        | Ok () -> Printf.printf "budget check: PASS (%s)\n" file
        | Error failures ->
            Printf.printf "budget check: FAIL (%s)\n" file;
            List.iter (Printf.printf "  %s\n") failures;
            exit 1)
  in
  let models =
    Arg.(
      value
      & opt (list model_name) []
      & info [ "models" ]
          ~doc:
            "Comma-separated model-zoo networks to validate (default: all \
             of them).")
  in
  let budget_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget-file" ] ~docv:"FILE"
          ~doc:
            "Check the report against this committed error budget and exit \
             non-zero when any network is over it.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the full per-layer JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "xval"
       ~doc:
         "Cross-validate the analytic backend against the cycle-accurate \
          engine on the model zoo.")
    Term.(const run $ models $ scale_term $ budget_file $ out)

let experiment_cmd =
  let run id quick =
    match id with
    | `Table1 -> Gem_experiments.Table1.run ()
    | `Fig3 -> ignore (Gem_experiments.Fig3.run ())
    | `Fig4 -> ignore (Gem_experiments.Fig4.run ~quick ())
    | `Fig6 -> ignore (Gem_experiments.Fig6.run ())
    | `Fig7 -> ignore (Gem_experiments.Fig7.run ~quick ())
    | `Fig8 -> ignore (Gem_experiments.Fig8.run ~quick ())
    | `Fig9 -> ignore (Gem_experiments.Fig9.run ~quick ())
  in
  let id =
    let ids =
      Arg.enum
        [
          ("table1", `Table1);
          ("fig3", `Fig3);
          ("fig4", `Fig4);
          ("fig6", `Fig6);
          ("fig7", `Fig7);
          ("fig8", `Fig8);
          ("fig9", `Fig9);
        ]
    in
    Arg.(required & opt (some ids) None & info [ "id" ] ~doc:"table1|fig3|fig4|fig6|fig7|fig8|fig9")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Channel-scaled models.") in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce a table/figure from the paper.")
    Term.(const run $ id $ quick)

(* --- serve: open-loop multi-core serving ------------------------------------- *)

let serve_cmd =
  let module Serve = Gem_serve.Serve in
  let run p model scale backend cores_list arrival seed batch slos
      duration no_warmup out trace_out warm warm_out rates jobs self_profile
      metrics_out =
    on_io_error "serve" @@ fun () ->
    let name = model.Gem_dnn.Layer.model_name in
    let scenario_for ~cores ~arrival =
      {
        Serve.sv_model = name;
        sv_scale = scale;
        sv_soc = Serve.config_for ~cores p;
        sv_backend = backend;
        sv_mode = Runtime.Accel { im2col_on_accel = true };
        sv_arrival = arrival;
        sv_seed = seed;
        sv_batch = batch;
        sv_slos_ms = slos;
        sv_duration_ms = duration;
        sv_warmup = not no_warmup;
      }
    in
    match rates with
    | None -> (
        (* Single scenario: full report (or one CSV row) on stdout. *)
        let cores =
          match cores_list with
          | [ n ] -> n
          | _ ->
              prerr_endline
                "[serve] exactly one --cores value without --rates";
              exit 2
        in
        if trace_out <> None && backend <> Gem_sw.Backend.Cycle then begin
          prerr_endline "[serve] --trace-out needs the cycle backend";
          exit 2
        end;
        let reg = Metrics.create () in
        let stream = ref None in
        let hooks =
          List.filter_map Fun.id
            [
              (match trace_out with
              | None -> None
              | Some file ->
                  (* Streaming writer: events land on disk as they
                     retire, so long serving runs trace in constant
                     memory. *)
                  Some
                    (fun soc ->
                      stream :=
                        Some
                          (Gem_sim.Export.Streaming.attach_file
                             (Soc.engine soc) file)));
              (if metrics_out <> None && backend = Gem_sw.Backend.Cycle then
                 Some
                   (fun soc ->
                     Gem_sim.Engine.register_metrics (Soc.engine soc) reg)
               else None);
            ]
        in
        let attach =
          match hooks with
          | [] -> None
          | hooks -> Some (fun soc -> List.iter (fun h -> h soc) hooks)
        in
        let result =
          with_self_profile self_profile (fun () ->
              try
                Serve.run ?attach ?warm_in:warm ?warm_out
                  (scenario_for ~cores ~arrival)
              with Invalid_argument msg ->
                Printf.eprintf "[serve] %s\n%!" msg;
                exit 2)
        in
        (match out with
        | `Report -> print_string (Gem_serve.Report.render result)
        | `Csv ->
            print_string Gem_serve.Report.csv_header;
            print_string (Gem_serve.Report.csv_row result));
        (match (trace_out, !stream) with
        | Some file, Some s ->
            Gem_sim.Export.Streaming.finish s;
            Printf.eprintf
              "[trace] wrote %s (chrome, %d event(s) streamed)\n%!" file
              (Gem_sim.Export.Streaming.events_written s)
        | _ -> ());
        if metrics_out <> None then Serve.register_metrics reg result;
        write_metrics reg metrics_out)
    | Some rates ->
        (* Throughput-vs-latency curve: arrival-rate x cores sweep through
           the DSE executor (parallelizable with --jobs; results are
           slotted by point index, so any job count prints identical
           bytes). *)
        if warm <> None || warm_out <> None || trace_out <> None then begin
          prerr_endline
            "[serve] --warm/--warm-out/--trace-out apply to single \
             scenarios, not --rates curves";
          exit 2
        end;
        if cores_list = [] || rates = [] then begin
          prerr_endline
            "[serve] --rates curves need at least one rate and one --cores \
             value";
          exit 2
        end;
        let spec =
          {
            Gem_dse.Point.ss_arrival = Gem_serve.Arrival.spec_to_string arrival;
            ss_batch = Gem_serve.Batch.policy_to_string batch;
            ss_slo_ms = (match slos with s :: _ -> s | [] -> 10.0);
            ss_duration_ms = duration;
            ss_seed = seed;
          }
        in
        let base =
          Gem_dse.Point.make
            ~soc:(Serve.config_for ~cores:(List.hd cores_list) p)
            ~model:name ~scale ~backend ~serve:spec ()
        in
        let points =
          Gem_dse.Sweep.cartesian ~base
            [ Gem_dse.Sweep.cores cores_list; Gem_dse.Sweep.serve_rates rates ]
        in
        let rr =
          with_self_profile self_profile (fun () ->
              Gem_dse.Exec.run ~jobs ~cache:None points)
        in
        (match metrics_out with
        | None -> ()
        | Some _ ->
            let reg = Metrics.create () in
            Gem_dse.Exec.register_metrics reg rr;
            write_metrics reg metrics_out);
        print_string (Gem_dse.Report.csv rr.Gem_dse.Exec.results)
  in
  let arrival_conv =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Gem_serve.Arrival.spec_of_string s)
    in
    let print fmt a =
      Format.fprintf fmt "%s" (Gem_serve.Arrival.spec_to_string a)
    in
    Arg.conv (parse, print)
  in
  let batch_conv =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Gem_serve.Batch.policy_of_string s)
    in
    let print fmt b =
      Format.fprintf fmt "%s" (Gem_serve.Batch.policy_to_string b)
    in
    Arg.conv (parse, print)
  in
  let cores =
    Arg.(
      value
      & opt (list pos_int) [ 2 ]
      & info [ "cores" ]
          ~doc:
            "Gemmini cores sharing the L2/DRAM. A single value for one \
             scenario; a comma-separated list becomes a sweep axis with \
             --rates.")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv (Gem_serve.Arrival.Poisson { rate_rps = 2000. })
      & info [ "arrival" ]
          ~doc:
            "Arrival process: poisson:RATE, bursty:RATE:BURST or \
             trace:FILE (one arrival cycle per line). Rates are requests \
             per second at 1 GHz.")
  in
  let seed =
    seed_term ~default:42
      ~doc:"Arrival-stream seed; equal seeds give byte-identical runs."
  in
  let batch =
    Arg.(
      value
      & opt batch_conv Gem_serve.Batch.No_batch
      & info [ "batch" ]
          ~doc:
            "Admission batching: none, fixed:N (greedy, size-capped) or \
             deadline:N:WAIT_US (hold the head up to WAIT_US microseconds \
             to fill a batch of N).")
  in
  let slos =
    Arg.(
      value
      & opt (list pos_float) [ 5.0; 10.0 ]
      & info [ "slo-ms" ]
          ~doc:"SLO targets in milliseconds (comma-separated).")
  in
  let duration =
    Arg.(
      value & opt pos_float 5.0
      & info [ "duration" ] ~docv:"MS"
          ~doc:"Arrival-window length in milliseconds.")
  in
  let no_warmup =
    Arg.(
      value & flag
      & info [ "no-warmup" ]
          ~doc:
            "Skip the untimed per-core warmup inference (cold-start \
             effects then land on the first requests).")
  in
  let out =
    let fmt = Arg.enum [ ("report", `Report); ("csv", `Csv) ] in
    Arg.(
      value & opt fmt `Report
      & info [ "out" ] ~doc:"Single-scenario output: report (default) or csv.")
  in
  let trace_out =
    trace_out_term
      ~doc:
        "Write a Chrome trace of the serving run (request > network > \
         layer spans) to $(docv). Cycle backend only."
  in
  let warm =
    Arg.(
      value & opt (some string) None
      & info [ "warm" ] ~docv:"FILE"
          ~doc:
            "Warm-start from a post-warmup SoC snapshot saved by \
             --warm-out (same model/scale/cores), skipping the warmup \
             re-simulation.")
  in
  let warm_out =
    Arg.(
      value & opt (some string) None
      & info [ "warm-out" ] ~docv:"FILE"
          ~doc:"Save the post-warmup SoC snapshot for later --warm runs.")
  in
  let rates =
    Arg.(
      value
      & opt (some (list pos_float)) None
      & info [ "rates" ]
          ~doc:
            "Curve mode: sweep these Poisson arrival rates (req/s, \
             comma-separated) x --cores through the DSE executor and \
             print a throughput-vs-latency CSV.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an open-loop request stream on a multi-core SoC \
          (latency percentiles, SLO attainment, throughput curves).")
    Term.(
      const run $ params_term $ model_term $ scale_term $ backend_term
      $ cores $ arrival $ seed $ batch $ slos $ duration
      $ no_warmup $ out $ trace_out $ warm $ warm_out $ rates $ jobs_term
      $ self_profile_term $ metrics_out_term)

let () =
  let info =
    Cmd.info "gemmini_cli" ~version:"1.0.0"
      ~doc:"Full-stack DNN accelerator generator and SoC simulator (Gemmini reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd;
            header_cmd;
            synth_cmd;
            run_cmd;
            serve_cmd;
            sweep_cmd;
            xval_cmd;
            experiment_cmd;
            fuzz_cmd;
          ]))
