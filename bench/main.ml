(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections IV and V), the serving scenario and the hot-path
   allocation figures, and writes the numbers the regression gate checks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig7    -- one experiment
     dune exec bench/main.exe -- quick   -- scaled-down figures (CI-sized)

   Absolute cycle counts come from this repository's simulator; each table
   prints the paper's reference numbers alongside. Wall-clock figures live
   in perfbench/, not here. *)

(* Machine-readable results: every experiment contributes its deterministic
   cycle counts (and similar integer measurements); the whole collection is
   written to BENCH_results.json at the end, and the CI regression gate
   (bench/check_regression.exe) diffs it against the committed
   BENCH_baseline.json. *)

let metrics : (string * int) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* Serving measurements live in their own gated section: they come from the
   open-loop serving layer (lib/serve) rather than a paper figure, and the
   regression gate diffs them with the same exact-match bar. *)
let serving : (string * int) list ref = ref []
let serving_metric name v = serving := (name, v) :: !serving

(* Hot-path measurements are allocation per operation (bytes/op) for the
   quiet event loop. Allocation is a deterministic function of the code,
   so check_regression.exe fails when any bytes/op exceeds its baseline. *)
let hotpath : (string * float) list ref = ref []
let hotpath_stat name v = hotpath := (name, v) :: !hotpath

let slug s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    s

let banner name f =
  Printf.printf "\n%s\n%s\n%!" name (String.make (String.length name) '=');
  f ()

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
        ( "hotpath",
          Obj (List.rev_map (fun (k, v) -> (k, Float v)) !hotpath) );
      ]
  in
  let oc = open_out path in
  output_string oc (to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d metrics)\n" path (List.length !metrics)

let run_table1 () = banner "Table I: generator feature comparison" Gem_experiments.Table1.run

let run_fig3 () =
  ignore (banner "Fig. 3: pipelined vs combinational spatial arrays" Gem_experiments.Fig3.run)

let run_fig4 ?quick () =
  let r = banner "Fig. 4: TLB miss rate over ResNet50" (Gem_experiments.Fig4.run ?quick) in
  metric "fig4.tlb_requests" r.Gem_experiments.Fig4.total_requests

let run_fig6 () =
  ignore (banner "Fig. 6: area breakdown" Gem_experiments.Fig6.run)

let run_fig7 ?quick () =
  let r = banner "Fig. 7: speedup over CPU baselines" (Gem_experiments.Fig7.run ?quick) in
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
    banner "Fig. 8: virtual-address translation co-design"
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
  let r = banner "Fig. 9: memory partitioning" (Gem_experiments.Fig9.run ?quick) in
  List.iter
    (fun (x : Gem_experiments.Fig9.run) ->
      metric
        (Printf.sprintf "fig9.c%d.%s" x.Gem_experiments.Fig9.cores
           (Gem_experiments.Fig9.config_label x.Gem_experiments.Fig9.name))
        x.Gem_experiments.Fig9.total_cycles)
    r.Gem_experiments.Fig9.runs

let run_ablations ?quick () =
  let r = banner "Ablations (design-choice studies)" (Gem_experiments.Ablations.run ?quick) in
  List.iter
    (fun (row : Gem_experiments.Ablations.row) ->
      let a = slug row.Gem_experiments.Ablations.ablation in
      metric (Printf.sprintf "ablations.%s.baseline" a) row.Gem_experiments.Ablations.baseline;
      metric (Printf.sprintf "ablations.%s.ablated" a) row.Gem_experiments.Ablations.ablated)
    r.Gem_experiments.Ablations.rows

(* Serving: open-loop Poisson traffic sharded over 2 Gemmini cores, on both
   the cycle-accurate SoC and the analytic estimator. Every contributed
   number is a deterministic function of the seed, so the regression gate
   holds them to exact equality (the CI serving gate in ci.yml additionally
   re-runs the CLI twice and compares bytes). *)
let run_serving_bench () =
  banner "Serving: 2-core open-loop latency/throughput" (fun () ->
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

(* Hot-path bench: allocation per operation for the flattened quiet paths
   (engine acquire, the L2 and TLB lookups, L2 and TLB eviction, timing-only DMA
   transfer on a null port and on the SoC's L2/DRAM port, the multi-core
   dispatch loop, a whole quiet single-core inference). The bytes/op figures land in the
   hotpath section of BENCH_results.json, which check_regression.exe gates.
   Set-up (SoC elaboration, page mapping) stays outside the measured
   window, so bytes/op is the steady-state cost of one call. *)
let run_hotpath_bench () =
  banner "Hot path: bytes/op (quiet event loop)" (fun () ->
      (* Words allocated on both heaps: [Gc.minor_words] plus the major
         words not promoted from the minor heap, so a block too large for
         the minor heap counts too ([Gc.allocated_bytes] is not used: on
         OCaml 5.1 it under-reports the words still in the minor arena).
         The figures are deterministic for one compiler and switch;
         regenerate the baseline when the compiler changes. *)
      let allocated_words () =
        let _, promoted, major = Gc.counters () in
        Gc.minor_words () +. major -. promoted
      in
      let window g =
        Gc.minor ();
        let w0 = allocated_words () in
        g ();
        allocated_words () -. w0
      in
      (* bytes/op is rounded to 0.1 B so per-call fixed costs amortized
         over many ops cannot move the gate. *)
      let bytes_per_op name ~ops words =
        let bytes =
          Float.round
            (words *. float_of_int (Sys.word_size / 8) /. float_of_int ops *. 10.)
          /. 10.
        in
        hotpath_stat (name ^ ".bytes_per_op") bytes;
        Printf.printf "  %-24s %8.1f B/op\n" name bytes
      in
      (* One warm-up call keeps first-touch work (page walks) out of the
         window; a dry run of the same scaffolding calibrates away the
         counters' own allocations. *)
      let measure name iters f =
        f 1;
        let overhead = window ignore in
        bytes_per_op name ~ops:iters (window (fun () -> f iters) -. overhead)
      in
      (let open Gem_sim in
       let e = Engine.create () in
       let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
       measure "engine_acquire" 1_000_000 (fun n ->
           for i = 1 to n do
             ignore (Engine.acquire e bus ~now:i ~occupancy:1)
           done));
      (* The lookups under each DMA row that starts a new L2 line or
         page. An access to the default L2 outside its last line: even
         calls cycle over 1024 resident lines (hits), odd calls stream
         through fresh lines (misses, half of them writes). A lookup in a
         512-entry TLB (Fig. 8's largest) that hits for half the vpns and
         misses for the rest. *)
      (let cfg = Gem_soc.Soc_config.default in
       let line_bytes = cfg.Gem_soc.Soc_config.l2_line_bytes in
       let l2 =
         Gem_mem.Cache.create ~size_bytes:cfg.l2_size_bytes ~ways:cfg.l2_ways
           ~line_bytes ()
       in
       measure "l2_access_nonmru" 1_000_000 (fun n ->
           for i = 1 to n do
             let line = if i land 1 = 0 then (i lsr 1) land 1023 else 1024 + i in
             ignore
               (Gem_mem.Cache.access l2 ~addr:(line * line_bytes)
                  ~write:(i land 2 = 0))
           done));
      (* Misses into a full default L2: a stream of fresh lines, so every
         access evicts its set's least recently used line, written by
         every other access of the stream: about half the victims are
         dirty. *)
      (let cfg = Gem_soc.Soc_config.default in
       let line_bytes = cfg.Gem_soc.Soc_config.l2_line_bytes in
       let l2 =
         Gem_mem.Cache.create ~size_bytes:cfg.l2_size_bytes ~ways:cfg.l2_ways
           ~line_bytes ()
       in
       let next = ref 0 in
       let stream n =
         for _ = 1 to n do
           ignore
             (Gem_mem.Cache.access l2 ~addr:(!next * line_bytes)
                ~write:(!next land 1 = 0));
           incr next
         done
       in
       stream (cfg.l2_size_bytes / line_bytes);
       measure "l2_access_miss" 1_000_000 stream);
      (let tlb = Gem_vm.Tlb.create ~entries:512 in
       for vpn = 0 to 511 do
         Gem_vm.Tlb.fill tlb ~vpn ~ppn:(vpn + 4096)
       done;
       measure "tlb_lookup" 1_000_000 (fun n ->
           for i = 1 to n do
             ignore (Gem_vm.Tlb.lookup tlb ~vpn:(i * 7 land 1023))
           done));
      (* Fills of fresh vpns into a full 512-entry TLB: each one evicts
         the least recently used entry, as a translation-bound layer's
         walks do in the shared TLB. *)
      (let tlb = Gem_vm.Tlb.create ~entries:512 in
       for vpn = 0 to 511 do
         Gem_vm.Tlb.fill tlb ~vpn ~ppn:(vpn + 4096)
       done;
       let next = ref 512 in
       measure "tlb_fill_evict" 1_000_000 (fun n ->
           for _ = 1 to n do
             Gem_vm.Tlb.fill tlb ~vpn:!next ~ppn:(!next + 4096);
             incr next
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
           done);
       (* 16 rows x 4 B inside one L2 line: rows 1-15 are one page run
          charged as one line run. *)
       measure "dma_mvin_sameline_soc" 50_000 (fun n ->
           for i = 1 to n do
             ignore
               (Gemmini.Dma.mvin dma ~now:(i * 1000) ~vaddr:va ~stride_bytes:4
                  ~rows:16 ~row_bytes:4)
           done);
       (* 16 rows x 16 B at stride 64, a new line each: rows 1-15 are one
          page run. *)
       measure "dma_mvin_pagerun_soc" 50_000 (fun n ->
           for i = 1 to n do
             ignore
               (Gemmini.Dma.mvin dma ~now:(i * 1000) ~vaddr:va ~stride_bytes:64
                  ~rows:16 ~row_bytes:16)
           done));
      (* Two programs of [k] ops, four per step (three host-work ops and
         a marker), as kernels emit several commands per tile step: the
         interleaver's cost per op, lowering's per step. *)
      (let ops k =
         let work = Gem_soc.Soc.Host_work { cycles = 3; tag = "w" } in
         let mark = Gem_soc.Soc.Marker (fun _ -> ()) in
         Gem_soc.Soc.program
           (Seq.return
              (Seq.init (k / 4) (fun _ emit ->
                   emit work;
                   emit work;
                   emit work;
                   emit mark)))
       in
       let soc = Gem_soc.Soc.create Gem_soc.Soc_config.dual_core in
       measure "soc_dispatch" 50_000 (fun n ->
           ignore (Gem_soc.Soc.run_parallel soc [| ops (n / 2); ops (n / 2) |])));
      (* A whole quiet inference — lowering, dispatch and the simulated
         hot path — per op the program emits. SoC elaboration stays
         outside the window; a first run warms the same code. *)
      let module Runtime = Gem_sw.Runtime in
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.resnet50
      in
      let mode = Runtime.Accel { im2col_on_accel = true } in
      let fresh () = Gem_soc.Soc.create Gem_soc.Soc_config.default in
      let run soc = ignore (Runtime.run soc ~core:0 model ~mode) in
      let ops =
        let soc = fresh () in
        Seq.length
          (Runtime.plan_ops soc (Gem_soc.Soc.core soc 0) model ~mode
             ~records:(ref []))
      in
      run (fresh ());
      let soc = fresh () in
      let overhead = window ignore in
      bytes_per_op "runtime_run_resnet50_s8" ~ops
        (window (fun () -> run soc) -. overhead))

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
  if all || has "serving" then run_serving_bench ();
  if all || has "hotpath" then run_hotpath_bench ();
  (* A partial run would leave check_regression an almost empty file and
     lose the last full results. *)
  if all then write_results ~quick "BENCH_results.json"
  else Printf.printf "\npartial run: BENCH_results.json not written\n";
  Printf.printf "\nDone.\n"
