(* The command-line face of the generator:

     gemmini_cli describe   [--preset NAME | sizing flags]
     gemmini_cli header     [...]          -- emit gemmini_params.h
     gemmini_cli synth      [...]          -- area/fmax/power estimate
     gemmini_cli run        --model NAME   -- simulate an inference
     gemmini_cli serve      --model NAME   -- serve an open-loop request stream
     gemmini_cli sweep      --model NAME   -- sweep array sizes
     gemmini_cli xval       [--models L]   -- analytic vs cycle backend
     gemmini_cli experiment --id fig7      -- reproduce a paper figure
     gemmini_cli fuzz       [--seed N]     -- differential fuzzing vs golden *)

open Cmdliner
module Soc = Gem_soc.Soc
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

(* A combination of flags the subcommand refuses: one "[tag]" line, exit
   2, nothing on stdout. *)
let usage tag msg =
  Printf.eprintf "[%s] %s\n%!" tag msg;
  exit 2

(* The frame every simulating subcommand runs [f] in:
   - every output file's directory is checked before the run starts, so a
     bad path costs no simulation and prints nothing on stdout;
   - a missing input file, or any other I/O error, is a usage error;
   - a trap the fault policy does not recover from ends the run with one
     "[tag] aborted" line and exit 1, not an internal error;
   - [--self-profile] writes its report from a [finally], so a trapped run
     still shows where its host time went;
   - [f] returns how to register the run's metrics, which happens only
     when [--metrics-out] asks for a snapshot. *)
let with_outputs tag ?self_profile ?metrics_out outputs f =
  List.iter
    (fun file ->
      let dir = Filename.dirname file in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        usage tag (Printf.sprintf "cannot write %s: no directory %s" file dir))
    (List.filter_map Fun.id (self_profile :: metrics_out :: outputs));
  try
    let register =
      try
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
      with Gem_sim.Fault.Trap fault ->
        Printf.eprintf "[%s] aborted: %s\n%!" tag (Gem_sim.Fault.to_string fault);
        exit 1
    in
    Option.iter
      (fun file ->
        let reg = Metrics.create () in
        register reg;
        Metrics.write_file reg file;
        Printf.eprintf "[metrics] wrote %s (%d source(s))\n%!" file
          (Metrics.size reg))
      metrics_out
  with Sys_error msg | Fun.Finally_raised (Sys_error msg) -> usage tag msg

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

let float_where ~what ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A value a library parses (its error names the bad input) and prints. *)
let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let probability =
  float_where ~what:"a probability in [0, 1]" (fun p -> p >= 0. && p <= 1.)

(* Rates and time budgets: a finite float above zero. *)
let positive x = Float.is_finite x && x > 0.
let pos_float = float_where ~what:"a positive number" positive

(* Simulated milliseconds: positive, and a cycle count that fits an int. *)
let pos_ms =
  float_where ~what:"a positive number of milliseconds within the cycle range"
    (fun ms ->
      positive ms
      &&
      match Gem_serve.Slo.cycles_of_ms ms with
      | _ -> true
      | exception Invalid_argument _ -> false)

let preset =
  conv_of
    (fun s ->
      match String.lowercase_ascii s with
      | "default" -> Ok Gemmini.Params.default
      | "edge" -> Ok Gemmini.Params.edge
      | "cloud" -> Ok Gemmini.Params.cloud
      | "tpu256" -> Ok (Gemmini.Params.tpu_like ~pes:256)
      | "nvdla256" -> Ok (Gemmini.Params.nvdla_like ~pes:256)
      | other -> Error (Printf.sprintf "unknown preset %S" other))
    Gemmini.Params.describe

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
  Option.to_result
    ~none:
      (Printf.sprintf "unknown model %S (available: %s)" s
         (String.concat ", " Gem_dnn.Model_zoo.names))
    (Gem_dnn.Model_zoo.find s)

(* A zoo network's name, checked at parse time. *)
let model_name = conv_of (fun s -> Result.map (fun _ -> s) (find_model s)) Fun.id

let model_term =
  Arg.(
    value
    & opt (conv_of find_model (fun m -> m.Gem_dnn.Layer.model_name))
        Gem_dnn.Model_zoo.resnet50
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
  conv_of
    (fun s ->
      Option.to_result
        ~none:
          (Printf.sprintf "unknown backend %S (available: %s)" s
             (String.concat ", "
                (List.map Gem_sw.Backend.kind_name Gem_sw.Backend.all_kinds)))
        (Gem_sw.Backend.kind_of_string s))
    Gem_sw.Backend.kind_name

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
  conv_of
    (fun s ->
      match String.lowercase_ascii s with
      | "abort" -> Ok Runtime.Abort
      | "retry" | "retry-map" -> Ok Runtime.Retry_map
      | "degrade" -> Ok Runtime.Degrade
      | "resume" | "resume-checkpoint" -> Ok Runtime.Resume_checkpoint
      | other -> Error (Printf.sprintf "unknown fault policy %S" other))
    Runtime.policy_desc

let run_cmd =
  let module Persist = Gem_persist.Persist in
  let run p backend model scale im2col_on_accel profile inject_seed inject_rate
      policy watchdog cores trace_out trace_format checkpoint_every
      checkpoint_out restore max_replays self_profile metrics_out =
    (* The trace collector doubles as the profile's layer breakdown. It
       watches the one SoC a plain or checkpointing cycle run builds. *)
    let observed = trace_out <> None || profile in
    if observed
       && (backend = Gem_sw.Backend.Analytic || restore <> None
          || policy = Runtime.Resume_checkpoint)
    then
      usage "run"
        "--trace-out and --profile observe one uninterrupted SoC: the \
         analytic backend builds none, and --restore and --fault-policy \
         resume-checkpoint rebuild it mid-network";
    with_outputs "run" ?self_profile ?metrics_out [ trace_out; checkpoint_out ]
    @@ fun () ->
    let restore =
      Option.map
        (fun path ->
          match Persist.load_checkpoint ~path with
          | Ok ck -> ck
          | Error msg -> usage "persist" ("cannot restore: " ^ msg))
        restore
    in
    let model = Gem_dnn.Model_zoo.scale_model ~factor:scale model in
    let options =
      {
        Persist.backend;
        config = Gem_serve.Serve.config_for ~cores p;
        jobs = Array.make cores (model, Runtime.Accel { im2col_on_accel });
        policy;
        watchdog;
        inject = Option.map (fun seed -> (seed, inject_rate)) inject_seed;
        checkpoint_every;
        checkpoint_out;
        restore;
        max_replays;
      }
    in
    let soc = ref None and collector = ref None in
    let attach s =
      soc := Some s;
      if observed then
        collector :=
          Some
            (Gem_sim.Export.attach
               ~chrome:
                 (match (trace_out, trace_format) with
                 | Some file, `Chrome -> `File file
                 | _ -> `Off)
               (Soc.engine s))
    in
    (* Finalizing on every exit leaves a loadable Chrome file even when a
       trap aborts the run: its open spans end at the abort horizon. *)
    let o =
      try
        Fun.protect
          ~finally:(fun () -> Option.iter Gem_sim.Export.finalize !collector)
          (fun () -> Persist.run ~attach options)
      with Invalid_argument msg -> usage "run" msg
    in
    Printf.printf "%s on %s%s%s\n" model.Gem_dnn.Layer.model_name
      (Gemmini.Params.describe p)
      (if cores > 1 then Printf.sprintf " x %d cores" cores else "")
      (match backend with
      | Gem_sw.Backend.Cycle -> ""
      | k -> Printf.sprintf " [%s backend]" (Gem_sw.Backend.kind_name k));
    Array.iter
      (fun r ->
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
      o.Persist.o_results;
    Option.iter
      (fun ck ->
        Printf.eprintf "[persist] resumed at layer %d\n%!" ck.Persist.ck_next_layer)
      restore;
    if o.Persist.o_checkpoints > 0 then
      Printf.eprintf "[persist] %d checkpoint(s)%s\n%!" o.Persist.o_checkpoints
        (match checkpoint_out with
        | Some f -> Printf.sprintf " -> %s" f
        | None -> " (in-memory)");
    if o.Persist.o_replays > 0 then
      Printf.eprintf "[persist] recovered via %d replay(s)\n%!"
        o.Persist.o_replays;
    Option.iter
      (fun c ->
        Option.iter
          (fun file ->
            if trace_format = `Report then
              Out_channel.with_open_text file (fun oc ->
                  output_string oc (Gem_sim.Export.report c));
            Printf.eprintf "[trace] wrote %s (%s)\n%!" file
              (match trace_format with `Chrome -> "chrome" | `Report -> "report"))
          trace_out;
        if profile then begin
          print_newline ();
          Gem_util.Table.print
            (Gem_sim.Engine.utilization_table
               (Soc.engine (Option.get !soc))
               ~horizon:
                 (Array.fold_left
                    (fun h r -> max h r.Runtime.r_total_cycles)
                    0 o.Persist.o_results)
               ());
          print_newline ();
          print_string (Gem_sim.Export.report c)
        end)
      !collector;
    fun reg ->
      Option.iter (fun s -> Gem_sim.Engine.register_metrics (Soc.engine s) reg) !soc;
      Array.iter (Runtime.register_metrics reg) o.Persist.o_results
  in
  let im2col =
    Arg.(value & opt bool true & info [ "accel-im2col" ] ~doc:"Use the hardware im2col block.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "After the run, print the engine's per-component \
             utilization/wait table, the per-layer profile (kernels, command \
             count, cycles, share) and the per-component queue-latency \
             table.")
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
    trace_out_term
      ~doc:
        "Write an execution trace of the run to $(docv). A Chrome trace \
         streams to the file as the run goes, in memory bounded by span \
         nesting depth; a run a trap aborts still leaves a loadable file, \
         its open spans ended at the abort cycle."
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
             resumed run's report and metrics snapshot are byte-identical \
             to the uninterrupted run's.")
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
    with_outputs "dse" ?self_profile ?metrics_out [] @@ fun () ->
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
    let rr = Gem_dse.Exec.run ~jobs ~cache points in
    Printf.eprintf "[dse] %d point(s): %d simulated, %d cached (jobs %d)\n%!"
      (Array.length points) rr.Gem_dse.Exec.simulated rr.Gem_dse.Exec.cached
      jobs;
    (match out with
    | `Json -> print_string (Gem_dse.Report.json_string rr.Gem_dse.Exec.results)
    | `Csv -> print_string (Gem_dse.Report.csv rr.Gem_dse.Exec.results)
    | `Table ->
        let t =
          Gem_util.Table.create
            ~title:
              (if scale = 1 then Printf.sprintf "Array-size sweep (%s)" name
               else Printf.sprintf "Array-size sweep (%s/%d)" name scale)
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
        Gem_util.Table.print t);
    fun reg -> Gem_dse.Exec.register_metrics reg rr
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
            (* The first seed whose case the mutated model answers wrongly. *)
            let rec first s =
              if s >= seed + count then None
              else
                let case = Gem_check.Gen.case ~force_invalid:false ~seed:s () in
                let report = Gem_check.Diff.run_case ~mutate:mutation case in
                if report.Gem_check.Diff.divergences <> [] then Some s
                else first (s + 1)
            in
            let detected = first seed in
            Printf.printf "self-test %-18s %s\n"
              (Gem_check.Golden.mutation_name mutation)
              (match detected with
              | Some s -> Printf.sprintf "detected (seed %d)" s
              | None -> "NOT DETECTED");
            detected = None)
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
          let case = if shrink then Gem_check.Shrink.minimize_case case else case in
          if shrink then begin
            Printf.printf "  shrunk to %d command(s):\n"
              (List.length case.Gem_check.Gen.program);
            List.iter
              (fun cmd -> Printf.printf "    %s\n" (Gemmini.Isa.to_string cmd))
              case.Gem_check.Gen.program
          end;
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
    with_outputs "xval" [ out ] @@ fun () ->
    (* The budget is read before the (long) validation, so a bad path
       fails at once. *)
    let budget =
      Option.map
        (fun file ->
          match Gem_dse.Xval.load_budget file with
          | Ok budget -> (file, budget)
          | Error msg ->
              usage "xval" (Printf.sprintf "cannot load budget %s: %s" file msg))
        budget_file
    in
    let models = if models = [] then Gem_dse.Xval.default_models else models in
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
    Option.iter
      (fun file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc
              (Gem_util.Jsonx.to_string ~pretty:true
                 (Gem_dse.Xval.report_to_json report));
            output_char oc '\n');
        Printf.eprintf "[xval] wrote %s\n%!" file)
      out;
    (match budget with
    | None -> ()
    | Some (file, budget) -> (
        match Gem_dse.Xval.check report budget with
        | Ok () -> Printf.printf "budget check: PASS (%s)\n" file
        | Error failures ->
            Printf.printf "budget check: FAIL (%s)\n" file;
            List.iter (Printf.printf "  %s\n") failures;
            exit 1));
    ignore
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
  let experiments =
    Gem_experiments.
      [ ("table1", fun _ -> Table1.run ());
        ("fig3", fun _ -> ignore (Fig3.run ()));
        ("fig4", fun quick -> ignore (Fig4.run ~quick ()));
        ("fig6", fun _ -> ignore (Fig6.run ()));
        ("fig7", fun quick -> ignore (Fig7.run ~quick ()));
        ("fig8", fun quick -> ignore (Fig8.run ~quick ()));
        ("fig9", fun quick -> ignore (Fig9.run ~quick ())) ]
  in
  let names = List.map fst experiments in
  let id =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [ "id" ] ~doc:(String.concat "|" names))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Channel-scaled models.") in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce a table/figure from the paper.")
    Term.(const (fun id quick -> List.assoc id experiments quick) $ id $ quick)

(* --- serve: open-loop multi-core serving ------------------------------------- *)

let serve_cmd =
  let module Serve = Gem_serve.Serve in
  let default_slos = [ 5.0; 10.0 ] in
  let run p model scale backend cores_list arrival seed batch slos
      duration no_warmup out trace_out warm warm_out rates jobs self_profile
      metrics_out =
    with_outputs "serve" ?self_profile ?metrics_out [ trace_out; warm_out ]
    @@ fun () ->
    let name = model.Gem_dnn.Layer.model_name in
    match rates with
    | None ->
        (* Single scenario: full report (or one CSV row) on stdout. *)
        let cores =
          match cores_list with
          | [ n ] -> n
          | _ -> usage "serve" "exactly one --cores value without --rates"
        in
        if trace_out <> None && backend <> Gem_sw.Backend.Cycle then
          usage "serve" "--trace-out needs the cycle backend";
        let built = ref None and stream = ref None in
        let attach soc =
          built := Some soc;
          Option.iter
            (fun file ->
              stream :=
                Some
                  ( file,
                    Gem_sim.Export.attach ~chrome:(`File file) (Soc.engine soc) ))
            trace_out
        in
        let result =
          try
            Fun.protect
              ~finally:(fun () ->
                Option.iter (fun (_, c) -> Gem_sim.Export.finalize c) !stream)
            @@ fun () ->
            Serve.run ~attach ?warm_in:warm ?warm_out
              {
                Serve.sv_model = name;
                sv_scale = scale;
                sv_soc = Serve.config_for ~cores p;
                sv_backend = backend;
                sv_mode = Runtime.Accel { im2col_on_accel = true };
                sv_arrival = arrival;
                sv_seed = seed;
                sv_batch = batch;
                sv_slos_ms = Option.value slos ~default:default_slos;
                sv_duration_ms = duration;
                sv_warmup = not no_warmup;
              }
          with Invalid_argument msg -> usage "serve" msg
        in
        (match out with
        | `Report -> print_string (Gem_serve.Report.render result)
        | `Csv ->
            print_string Gem_serve.Report.csv_header;
            print_string (Gem_serve.Report.csv_row result));
        Option.iter
          (fun (file, c) ->
            Printf.eprintf "[trace] wrote %s (chrome, %d event(s) streamed)\n%!"
              file (Gem_sim.Export.events_written c))
          !stream;
        fun reg ->
          Option.iter
            (fun soc -> Gem_sim.Engine.register_metrics (Soc.engine soc) reg)
            !built;
          Serve.register_metrics reg result
    | Some rates ->
        (* Throughput-vs-latency curve: arrival-rate x cores sweep through
           the DSE executor (parallelizable with --jobs; results are
           slotted by point index, so any job count prints identical
           bytes). A curve point always warms up and is judged against
           one SLO. *)
        if warm <> None || warm_out <> None || trace_out <> None || no_warmup
        then
          usage "serve"
            "--warm/--warm-out/--trace-out/--no-warmup apply to single \
             scenarios, not --rates curves";
        let slo_ms =
          match slos with
          | None -> List.hd default_slos
          | Some [ slo ] -> slo
          | Some _ -> usage "serve" "a --rates curve takes one --slo-ms value"
        in
        if cores_list = [] || rates = [] then
          usage "serve"
            "--rates curves need at least one rate and one --cores value";
        let spec =
          {
            Gem_dse.Point.ss_arrival = Gem_serve.Arrival.spec_to_string arrival;
            ss_batch = Gem_serve.Batch.policy_to_string batch;
            ss_slo_ms = slo_ms;
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
          try Gem_dse.Exec.run ~jobs ~cache:None points
          with Invalid_argument msg -> usage "serve" msg
        in
        print_string (Gem_dse.Report.csv rr.Gem_dse.Exec.results);
        fun reg -> Gem_dse.Exec.register_metrics reg rr
  in
  let arrival_conv =
    conv_of Gem_serve.Arrival.spec_of_string Gem_serve.Arrival.spec_to_string
  in
  let batch_conv =
    conv_of Gem_serve.Batch.policy_of_string Gem_serve.Batch.policy_to_string
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
      & opt (some ~none:"5,10" (list pos_ms)) None
      & info [ "slo-ms" ]
          ~doc:
            "SLO targets in milliseconds (comma-separated). A --rates curve \
             takes one (default 5).")
  in
  let duration =
    Arg.(
      value & opt pos_ms 5.0
      & info [ "duration" ] ~docv:"MS"
          ~doc:"Arrival-window length in milliseconds.")
  in
  let no_warmup =
    Arg.(
      value & flag
      & info [ "no-warmup" ]
          ~doc:
            "Skip the untimed per-core warmup inference (cold-start \
             effects then land on the first requests). Single scenarios \
             only.")
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
        "Stream a Chrome trace of the serving run (request > network > \
         layer spans, plus counter tracks) to $(docv). Cycle backend only."
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
