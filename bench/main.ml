(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections IV and V) and runs bechamel microbenchmarks of the
   simulator's hot paths.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig7    -- one experiment
     dune exec bench/main.exe -- quick   -- scaled-down figures (CI-sized)

   Absolute cycle counts come from this repository's simulator; each table
   prints the paper's reference numbers alongside. *)

let banner name =
  Printf.printf "\n%s\n%s\n" name (String.make (String.length name) '=')

(* Machine-readable results: every experiment contributes its deterministic
   cycle counts (and similar integer measurements) plus its wall time; the
   whole collection is written to BENCH_results.json at the end, and the CI
   regression gate (bench/check_regression.exe) diffs the cycle counts
   against the committed BENCH_baseline.json. *)

let metrics : (string * int) list ref = ref []
let walls : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* Serving measurements live in their own gated section: they come from the
   open-loop serving layer (lib/serve) rather than a paper figure, and the
   regression gate diffs them with the same exact-match bar. *)
let serving : (string * int) list ref = ref []
let serving_metric name v = serving := (name, v) :: !serving

(* Self-profiler measurements are wall-clock (machine-dependent), so they
   get their own ungated section: check_regression.exe acknowledges and
   skips it, the same treatment as wall_s. *)
let self_profile : (string * float) list ref = ref []
let self_profile_wall name v = self_profile := (name, v) :: !self_profile

(* Hot-path measurements are wall-clock (ns/op) and allocation (bytes/op)
   pairs for the quiet event loop. Wall time is machine-dependent and only
   reported; allocation is a deterministic function of the code, so
   check_regression.exe fails when any bytes/op exceeds its baseline. *)
let hotpath : (string * float) list ref = ref []
let hotpath_stat name v = hotpath := (name, v) :: !hotpath

let slug s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    s

let timed name f =
  banner name;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  walls := (name, dt) :: !walls;
  Printf.printf "[%s: %.1fs]\n%!" name dt;
  r

let write_results ~quick path =
  let open Gem_util.Jsonx in
  let json =
    Obj
      [
        ("schema", Int 1);
        ("quick", Bool quick);
        ( "metrics",
          Obj
            (List.sort
               (fun (a, _) (b, _) -> compare a b)
               (List.rev_map (fun (k, v) -> (k, Int v)) !metrics)) );
        ( "serving",
          Obj
            (List.sort
               (fun (a, _) (b, _) -> compare a b)
               (List.rev_map (fun (k, v) -> (k, Int v)) !serving)) );
        ( "self_profile",
          Obj (List.rev_map (fun (k, v) -> (k, Float v)) !self_profile) );
        ( "hotpath",
          Obj (List.rev_map (fun (k, v) -> (k, Float v)) !hotpath) );
        ( "wall_s",
          Obj (List.rev_map (fun (k, v) -> (k, Float v)) !walls) );
      ]
  in
  let oc = open_out path in
  output_string oc (to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d metrics)\n" path (List.length !metrics)

let run_table1 () = timed "Table I: generator feature comparison" Gem_experiments.Table1.run

let run_fig3 () =
  ignore (timed "Fig. 3: pipelined vs combinational spatial arrays" Gem_experiments.Fig3.run)

let run_fig4 ?quick () =
  let r = timed "Fig. 4: TLB miss rate over ResNet50" (Gem_experiments.Fig4.run ?quick) in
  metric "fig4.tlb_requests" r.Gem_experiments.Fig4.total_requests

let run_fig6 () =
  ignore (timed "Fig. 6: area breakdown" Gem_experiments.Fig6.run)

let run_fig7 ?quick () =
  let r = timed "Fig. 7: speedup over CPU baselines" (Gem_experiments.Fig7.run ?quick) in
  List.iter
    (fun (row : Gem_experiments.Fig7.row) ->
      let m = slug row.Gem_experiments.Fig7.model in
      metric (Printf.sprintf "fig7.%s.baseline_rocket" m) row.Gem_experiments.Fig7.baseline_rocket;
      metric (Printf.sprintf "fig7.%s.rocket_cpu_im2col" m) row.Gem_experiments.Fig7.rocket_cpu_im2col;
      metric (Printf.sprintf "fig7.%s.boom_cpu_im2col" m) row.Gem_experiments.Fig7.boom_cpu_im2col;
      metric (Printf.sprintf "fig7.%s.rocket_accel_im2col" m) row.Gem_experiments.Fig7.rocket_accel_im2col;
      metric (Printf.sprintf "fig7.%s.boom_accel_im2col" m) row.Gem_experiments.Fig7.boom_accel_im2col)
    r.Gem_experiments.Fig7.rows

let run_fig8 ?quick () =
  let r =
    timed "Fig. 8: virtual-address translation co-design"
      (Gem_experiments.Fig8.run ?quick)
  in
  List.iter
    (fun (p : Gem_experiments.Fig8.point) ->
      metric
        (Printf.sprintf "fig8.%s.p%d.s%d"
           (if p.Gem_experiments.Fig8.filters then "filters" else "nofilters")
           p.Gem_experiments.Fig8.private_entries
           p.Gem_experiments.Fig8.shared_entries)
        p.Gem_experiments.Fig8.cycles)
    r.Gem_experiments.Fig8.points

let run_fig9 ?quick () =
  let r = timed "Fig. 9: memory partitioning" (Gem_experiments.Fig9.run ?quick) in
  List.iter
    (fun (x : Gem_experiments.Fig9.run) ->
      metric
        (Printf.sprintf "fig9.c%d.%s" x.Gem_experiments.Fig9.cores
           (Gem_experiments.Fig9.config_label x.Gem_experiments.Fig9.name))
        x.Gem_experiments.Fig9.total_cycles)
    r.Gem_experiments.Fig9.runs

let run_ablations ?quick () =
  let r = timed "Ablations (design-choice studies)" (Gem_experiments.Ablations.run ?quick) in
  List.iter
    (fun (row : Gem_experiments.Ablations.row) ->
      let a = slug row.Gem_experiments.Ablations.ablation in
      metric (Printf.sprintf "ablations.%s.baseline" a) row.Gem_experiments.Ablations.baseline;
      metric (Printf.sprintf "ablations.%s.ablated" a) row.Gem_experiments.Ablations.ablated)
    r.Gem_experiments.Ablations.rows

(* Observability overhead: a collected run must report exactly the same
   cycle count as a quiet run (events carry already-observed timestamps),
   and a quiet run must not pay for span construction (every emission site
   is guarded by Engine.live). Asserted hard here rather than contributed
   as gated metrics — the regression gate would treat any new metric name
   as a failure. *)
let run_trace_overhead () =
  timed "Trace overhead: quiet vs collected run" (fun () ->
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.mobilenetv2
      in
      let run ~collect =
        let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
        let collector =
          if collect then Some (Gem_sim.Export.attach (Gem_soc.Soc.engine soc))
          else None
        in
        let t0 = Unix.gettimeofday () in
        let r =
          Gem_sw.Runtime.run soc ~core:0 model
            ~mode:(Gem_sw.Runtime.Accel { im2col_on_accel = true })
        in
        let dt = Unix.gettimeofday () -. t0 in
        let spans =
          match collector with
          | Some c ->
              Gem_sim.Export.finalize c;
              Gem_sim.Span.count (Gem_sim.Export.recorder c)
          | None -> 0
        in
        (r.Gem_sw.Runtime.r_total_cycles, spans, dt)
      in
      let quiet_cycles, _, quiet_dt = run ~collect:false in
      let traced_cycles, spans, traced_dt = run ~collect:true in
      Printf.printf
        "  quiet  %s cycles in %.2fs\n  traced %s cycles in %.2fs (%s spans)\n"
        (Gem_util.Table.fmt_int quiet_cycles)
        quiet_dt
        (Gem_util.Table.fmt_int traced_cycles)
        traced_dt
        (Gem_util.Table.fmt_int spans);
      if quiet_cycles <> traced_cycles then
        failwith "trace overhead: collected run changed the cycle count";
      if spans = 0 then failwith "trace overhead: collector recorded no spans")

(* Self-profiler gate: a profiled run must report exactly the same cycle
   count as a quiet run (the profiler reads host clocks and GC counters
   only — simulated time is untouchable), and the disabled probes must
   not record anything. Cycle equality is asserted hard; the wall-time
   attribution lands in the ungated self_profile section. *)
let run_selfprofile_bench () =
  timed "Self-profile: probed vs quiet run (mobilenetv2)" (fun () ->
      let module P = Gem_obs.Profile in
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.mobilenetv2
      in
      let run () =
        let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
        let t0 = Unix.gettimeofday () in
        let r =
          Gem_sw.Runtime.run soc ~core:0 model
            ~mode:(Gem_sw.Runtime.Accel { im2col_on_accel = true })
        in
        (r.Gem_sw.Runtime.r_total_cycles, Unix.gettimeofday () -. t0)
      in
      P.reset ();
      let quiet_cycles, quiet_dt = run () in
      if P.phases () <> [] then
        failwith "self-profile: disabled probes recorded phases";
      P.enable ();
      let profiled_cycles, profiled_dt =
        Fun.protect ~finally:P.disable run
      in
      let phases = P.phases () in
      let coverage = P.coverage_pct ~total_s:profiled_dt phases in
      Printf.printf
        "  quiet    %s cycles in %.2fs\n\
        \  profiled %s cycles in %.2fs (%d phase(s), %.1f%% attributed)\n"
        (Gem_util.Table.fmt_int quiet_cycles)
        quiet_dt
        (Gem_util.Table.fmt_int profiled_cycles)
        profiled_dt (List.length phases) coverage;
      if quiet_cycles <> profiled_cycles then
        failwith "self-profile: probed run changed the cycle count";
      if phases = [] then
        failwith "self-profile: enabled probes recorded nothing";
      let orphans, forced = P.anomalies () in
      if orphans > 0 || forced > 0 then
        failwith
          (Printf.sprintf "self-profile: %d orphan / %d forced leave(s)"
             orphans forced);
      self_profile_wall "selfprofile.quiet_s" quiet_dt;
      self_profile_wall "selfprofile.profiled_s" profiled_dt;
      self_profile_wall "selfprofile.coverage_pct" coverage;
      List.iter
        (fun (ph : P.phase) ->
          self_profile_wall
            (Printf.sprintf "selfprofile.%s.self_s" (slug ph.P.ph_name))
            ph.P.ph_self_s)
        phases)

(* Analytic-backend throughput: estimate every zoo network (full scale)
   repeatedly and report design points per second — the number that makes
   10k-point sweeps tractable. Wall-clock only (wall_s entries): the
   figures are machine-dependent, so they stay out of the gated metrics. *)
let run_analytic_bench () =
  timed "Analytic backend: full-zoo estimation throughput" (fun () ->
      let jobs =
        List.map
          (fun m -> (m, Gem_sw.Runtime.Accel { im2col_on_accel = true }))
          Gem_dnn.Model_zoo.all
      in
      let rounds = 20 in
      let checksum = ref 0 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        List.iter
          (fun job ->
            let rq =
              Gem_sw.Backend.request ~config:Gem_soc.Soc_config.default
                [| job |]
            in
            let r = Gem_sw.Backend_analytic.run rq in
            checksum := !checksum + r.(0).Gem_sw.Runtime.r_total_cycles)
          jobs
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let points = rounds * List.length jobs in
      let pps = float_of_int points /. dt in
      walls := ("analytic.points_per_s", pps) :: !walls;
      Printf.printf
        "  %d full-scale network estimates in %.3fs (%.0f points/s, checksum %d)\n"
        points dt pps !checksum)

(* Checkpoint cost: serialize/deserialize wall time and snapshot size for
   MobileNetV2. Wall-clock only (wall_s entries): machine-dependent, so
   deliberately outside the gated metrics; the snapshot byte count rides
   along in wall_s for the same reason. *)
let run_persist_bench () =
  timed "Persist: checkpoint serialize/deserialize (mobilenetv2)" (fun () ->
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.mobilenetv2
      in
      let mode = Gem_sw.Runtime.Accel { im2col_on_accel = true } in
      let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
      let r = Gem_sw.Runtime.run soc ~core:0 model ~mode in
      let ck =
        {
          Gem_persist.Persist.ck_model = model.Gem_dnn.Layer.model_name;
          ck_mode = Gem_sw.Runtime.mode_desc mode;
          ck_core = 0;
          ck_next_layer = List.length model.Gem_dnn.Layer.layers;
          ck_last_finish = r.Gem_sw.Runtime.r_total_cycles;
          ck_records = r.Gem_sw.Runtime.r_layers;
          ck_soc = Gem_soc.Soc.snapshot soc;
        }
      in
      let path = Filename.temp_file "gem_bench_persist" ".ckpt" in
      let rounds = 10 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        Gem_persist.Persist.save_checkpoint ~path ck
      done;
      let ser = (Unix.gettimeofday () -. t0) /. float_of_int rounds in
      let bytes = (Unix.stat path).Unix.st_size in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        match Gem_persist.Persist.load_checkpoint ~path with
        | Ok _ -> ()
        | Error msg -> failwith ("persist bench: reload failed: " ^ msg)
      done;
      let de = (Unix.gettimeofday () -. t0) /. float_of_int rounds in
      Sys.remove path;
      walls := ("persist.serialize_s", ser) :: !walls;
      walls := ("persist.deserialize_s", de) :: !walls;
      walls := ("persist.snapshot_bytes", float_of_int bytes) :: !walls;
      Printf.printf
        "  snapshot %s bytes; serialize %.1f ms, deserialize %.1f ms (avg of %d)\n"
        (Gem_util.Table.fmt_int bytes) (ser *. 1e3) (de *. 1e3) rounds)

(* Serving: open-loop Poisson traffic sharded over 2 Gemmini cores, on both
   the cycle-accurate SoC and the analytic estimator. Every contributed
   number is a deterministic function of the seed, so the regression gate
   holds them to exact equality (the CI serving gate in ci.yml additionally
   re-runs the CLI twice and compares bytes). *)
let run_serving_bench () =
  timed "Serving: 2-core open-loop latency/throughput" (fun () ->
      let scenario backend =
        {
          Gem_serve.Serve.default with
          Gem_serve.Serve.sv_model = "mobilenetv2";
          sv_scale = 32;
          sv_backend = backend;
          sv_arrival = Gem_serve.Arrival.Poisson { rate_rps = 4000. };
          sv_batch = Gem_serve.Batch.Fixed 2;
          sv_duration_ms = 1.5;
          sv_slos_ms = [ 2.0 ];
          sv_seed = 42;
        }
      in
      List.iter
        (fun (tag, backend) ->
          let r = Gem_serve.Serve.run (scenario backend) in
          let rp = r.Gem_serve.Serve.sr_report in
          let lat = rp.Gem_serve.Slo.rp_latency in
          serving_metric (tag ^ ".offered") rp.Gem_serve.Slo.rp_offered;
          serving_metric (tag ^ ".completed") rp.Gem_serve.Slo.rp_completed;
          serving_metric (tag ^ ".horizon_cycles") rp.Gem_serve.Slo.rp_horizon;
          serving_metric (tag ^ ".p50_cycles")
            (int_of_float lat.Gem_util.Stats.Histogram.p50);
          serving_metric (tag ^ ".p95_cycles")
            (int_of_float lat.Gem_util.Stats.Histogram.p95);
          serving_metric (tag ^ ".max_cycles")
            (int_of_float lat.Gem_util.Stats.Histogram.max);
          serving_metric (tag ^ ".batches")
            (List.length r.Gem_serve.Serve.sr_dispatches);
          List.iter
            (fun (core, n) ->
              serving_metric (Printf.sprintf "%s.core%d" tag core) n)
            rp.Gem_serve.Slo.rp_per_core;
          Printf.printf "  %-8s %d/%d requests, horizon %s cycles, p95 %.3f ms\n"
            tag rp.Gem_serve.Slo.rp_completed rp.Gem_serve.Slo.rp_offered
            (Gem_util.Table.fmt_int rp.Gem_serve.Slo.rp_horizon)
            (Gem_serve.Slo.ms_of_cycles
               (int_of_float lat.Gem_util.Stats.Histogram.p95)))
        [ ("cycle", Gem_sw.Backend.Cycle); ("analytic", Gem_sw.Backend.Analytic) ])

(* Hot-path bench: wall time AND allocation per operation for the
   flattened quiet paths (engine acquire, timing-only DMA transfer on a
   null port and on the SoC's L2/DRAM port, the multi-core dispatch
   loop), plus hard equality gates for the parallel driver — a probed or
   multi-Domain run must report exactly the cycle counts of the quiet
   sequential reference. The ns/op / bytes/op pairs land in the hotpath
   section of BENCH_results.json, whose bytes/op check_regression.exe
   gates. Set-up (SoC elaboration, page mapping) stays outside the
   measured window, so bytes/op is the steady-state cost of one call. *)
let run_hotpath_bench () =
  timed "Hot path: ns/op and bytes/op (quiet event loop)" (fun () ->
      let measure name iters f =
        (* Words allocated on both heaps: [Gc.minor_words] plus the
           major words not promoted from the minor heap, so a block too
           large for the minor heap counts too ([Gc.allocated_bytes] is
           not used: on OCaml 5.1 it under-reports the words still in the
           minor arena). The figures are deterministic for one compiler
           and switch; regenerate the baseline when the compiler changes.
           One warm-up call keeps first-touch work (page walks) out of
           the window; a dry run of the same scaffolding calibrates away
           the counters' and clock's own allocations; bytes/op is rounded
           to 0.1 B so per-call fixed costs amortized over [iters] cannot
           move the gate. *)
        let allocated_words () =
          let _, promoted, major = Gc.counters () in
          Gc.minor_words () +. major -. promoted
        in
        let window g =
          Gc.minor ();
          let w0 = allocated_words () in
          let t0 = Unix.gettimeofday () in
          g ();
          let t1 = Unix.gettimeofday () in
          (allocated_words () -. w0, t1 -. t0)
        in
        f 1;
        let overhead, _ = window ignore in
        let words, dt = window (fun () -> f iters) in
        let ns = dt *. 1e9 /. float_of_int iters in
        let bytes =
          Float.round
            ((words -. overhead) *. float_of_int (Sys.word_size / 8)
            /. float_of_int iters *. 10.)
          /. 10.
        in
        hotpath_stat (name ^ ".ns_per_op") ns;
        hotpath_stat (name ^ ".bytes_per_op") bytes;
        Printf.printf "  %-24s %10.1f ns/op %8.1f B/op\n" name ns bytes
      in
      (let open Gem_sim in
       let e = Engine.create () in
       let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
       measure "engine_acquire" 1_000_000 (fun n ->
           for i = 1 to n do
             ignore (Engine.acquire e bus ~now:i ~occupancy:1)
           done));
      (let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
       Gem_vm.Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 22)
         ~paddr:0x40_0000;
       let ptw =
         Gem_vm.Ptw.create ~page_table:pt
           ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
           ()
       in
       let tlb =
         Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw
       in
       let dma =
         Gemmini.Dma.create Gemmini.Params.default ~port:Gemmini.Dma.null_port
           ~tlb
       in
       measure "dma_mvin_16rows" 50_000 (fun n ->
           for i = 1 to n do
             ignore
               (Gemmini.Dma.mvin dma ~now:(i * 1000) ~vaddr:0 ~stride_bytes:64
                  ~rows:16 ~row_bytes:64)
           done));
      (* The same transfer on the path [run] executes: core 0's DMA of a
         default SoC, every row's lines walked through the L2 port, the
         cache and DRAM. *)
      (let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
       let core = Gem_soc.Soc.core soc 0 in
       let dma = Gemmini.Controller.dma (Gem_soc.Soc.controller core) in
       let va = Gem_soc.Soc.alloc soc core ~bytes:4096 in
       measure "dma_mvin_16rows_soc" 50_000 (fun n ->
           for i = 1 to n do
             ignore
               (Gemmini.Dma.mvin dma ~now:(i * 1000) ~vaddr:va ~stride_bytes:64
                  ~rows:16 ~row_bytes:64)
           done));
      (let ops k =
         Seq.init k (fun i ->
             if i mod 4 = 3 then Gem_soc.Soc.Marker (fun _ -> ())
             else Gem_soc.Soc.Host_work { cycles = 3; tag = "w" })
       in
       let soc = Gem_soc.Soc.create Gem_soc.Soc_config.dual_core in
       measure "soc_dispatch" 50_000 (fun n ->
           ignore (Gem_soc.Soc.run_parallel soc [| ops (n / 2); ops (n / 2) |])));
      (* Equality gates for the Domain-parallel driver. *)
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:16 Gem_dnn.Model_zoo.squeezenet
      in
      let jobs =
        [|
          (model, Gem_sw.Runtime.Accel { im2col_on_accel = true });
          (model, Gem_sw.Runtime.Accel { im2col_on_accel = false });
        |]
      in
      let cycles ?(domains = 1) ?(probed = false) () =
        let module P = Gem_obs.Profile in
        let soc = Gem_soc.Soc.create Gem_soc.Soc_config.dual_core in
        if probed then P.enable ();
        let rs =
          Fun.protect
            ~finally:(fun () -> if probed then P.disable ())
            (fun () -> Gem_sw.Runtime.run_parallel ~domains soc jobs)
        in
        Array.map (fun r -> r.Gem_sw.Runtime.r_total_cycles) rs
      in
      let reference = cycles () in
      if cycles ~domains:4 () <> reference then
        failwith "hotpath: domains=4 changed the parallel cycle counts";
      if cycles ~domains:4 ~probed:true () <> reference then
        failwith "hotpath: probed parallel run changed the cycle counts";
      Printf.printf
        "  parallel gates: domains=4 and probed runs match (%s / %s cycles)\n"
        (Gem_util.Table.fmt_int reference.(0))
        (Gem_util.Table.fmt_int reference.(1)))

(* --- bechamel microbenchmarks of simulator hot paths ----------------------- *)

let micro () =
  banner "Microbenchmarks (bechamel)";
  let open Bechamel in
  let mesh_matmul =
    Test.make ~name:"mesh 16x16 WS matmul (cycle-accurate)"
      (Staged.stage (fun () ->
           let mesh = Gemmini.Mesh.create Gemmini.Params.default in
           let rng = Gem_util.Rng.create ~seed:1 in
           let a = Gem_util.Matrix.random rng ~rows:16 ~cols:16 ~lo:(-128) ~hi:127 in
           let b = Gem_util.Matrix.random rng ~rows:16 ~cols:16 ~lo:(-128) ~hi:127 in
           ignore (Gemmini.Mesh.run_matmul mesh ~dataflow:`WS ~a ~b ())))
  in
  let tlb_translate =
    Test.make ~name:"tlb hierarchy translate (hit path)"
      (Staged.stage
         (let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
          Gem_vm.Page_table.map_range pt ~vaddr:0x10000 ~bytes:(1 lsl 20)
            ~paddr:0x2000_0000;
          let ptw =
            Gem_vm.Ptw.create ~page_table:pt
              ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
              ()
          in
          let h = Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw in
          let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Gem_vm.Hierarchy.translate h ~now:!i
                 ~vaddr:(0x10000 + (!i mod 4096))
                 ~write:false)))
  in
  let cache_access =
    Test.make ~name:"L2 cache access"
      (Staged.stage
         (let c = Gem_mem.Cache.create ~size_bytes:(1 lsl 20) ~ways:16 ~line_bytes:64 () in
          let i = ref 0 in
          fun () ->
            i := !i + 64;
            ignore (Gem_mem.Cache.access c ~addr:(!i land 0x3F_FFFF) ~write:false)))
  in
  let kernel_emit =
    Test.make ~name:"matmul kernel emission (128x128x128)"
      (Staged.stage (fun () ->
           ignore
             (Gem_sw.Kernels.matmul_ops Gemmini.Params.default ~a:0x10000
                ~b:0x20000 ~out:0x30000 ~m:128 ~k:128 ~n:128 ())))
  in
  let engine_acquire =
    (* The engine hot path every timed request goes through: resource
       arbitration + clock high-water + the observing guard (quiet, the
       common case). *)
    Test.make ~name:"engine acquire (quiet hot path)"
      (Staged.stage
         (let open Gem_sim in
          let e = Engine.create () in
          let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
          let i = ref 0 in
          fun () ->
            incr i;
            ignore (Engine.acquire e bus ~now:!i ~occupancy:1)))
  in
  (* The observed path serve and DSE take: one sink attached, so every
     acquire builds an event and fans it out. *)
  let engine_acquire_sink =
    Test.make ~name:"engine acquire (one sink)"
      (Staged.stage
         (let open Gem_sim in
          let e = Engine.create () in
          Engine.add_sink e ignore;
          let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
          let i = ref 0 in
          fun () ->
            incr i;
            ignore (Engine.acquire e bus ~now:!i ~occupancy:1)))
  in
  let tests =
    [
      mesh_matmul;
      tlb_translate;
      cache_access;
      kernel_emit;
      engine_acquire;
      engine_acquire_sink;
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ())
      [ instance ] test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let a = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some (est :: _) -> Printf.printf "  %-44s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-44s (no estimate)\n" name)
        a)
    tests

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let has name = List.mem name args in
  let all =
    (not quick && args = [])
    || (quick && List.length args = 1)
    || has "all"
  in
  if all || has "table1" then run_table1 ();
  if all || has "fig3" then run_fig3 ();
  if all || has "fig6" then run_fig6 ();
  if all || has "fig4" then run_fig4 ~quick ();
  if all || has "fig7" then run_fig7 ~quick ();
  if all || has "fig8" then run_fig8 ~quick ();
  if all || has "fig9" then run_fig9 ~quick ();
  if all || has "ablations" then run_ablations ~quick ();
  if all || has "trace" then run_trace_overhead ();
  if all || has "selfprofile" then run_selfprofile_bench ();
  if all || has "analytic" then run_analytic_bench ();
  if all || has "persist" then run_persist_bench ();
  if all || has "serving" then run_serving_bench ();
  if all || has "hotpath" then run_hotpath_bench ();
  if all || has "micro" then micro ();
  write_results ~quick "BENCH_results.json";
  Printf.printf "\nDone.\n"
