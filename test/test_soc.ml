(* gem_soc + controller integration: allocation, host access, fences,
   multi-core interleaving and contention, the interleaver's schedule,
   and its invariance under observation and checkpoint/restore. *)

module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Kernels = Gem_sw.Kernels
module Engine = Gem_sim.Engine
module Jsonx = Gem_util.Jsonx

let small_model = Gem_dnn.Model_zoo.(scale_model ~factor:8 squeezenet)
let mode = Runtime.Accel { im2col_on_accel = true }

let test_alloc_distinct () =
  let soc = Soc.create Soc_config.dual_core in
  let c0 = Soc.core soc 0 and c1 = Soc.core soc 1 in
  let v0 = Soc.alloc soc c0 ~bytes:10000 in
  let v1 = Soc.alloc soc c1 ~bytes:10000 in
  (* Same or different VAs are fine (separate address spaces), but the
     physical backing must differ. *)
  let p0 = Option.get (Gem_vm.Page_table.translate (Soc.page_table c0) ~vaddr:v0) in
  let p1 = Option.get (Gem_vm.Page_table.translate (Soc.page_table c1) ~vaddr:v1) in
  Alcotest.(check bool) "distinct physical pages" true (abs (p0 - p1) >= 4096);
  (* Two allocations on one core never overlap. *)
  let v2 = Soc.alloc soc c0 ~bytes:4096 in
  Alcotest.(check bool) "va grows" true (v2 >= v0 + 10000)

(* [Soc_config.validate] refuses every L2 geometry [Cache.create] would:
   a 768 KB L2 has 768 sets, a 48 B line is no power of two, and way
   numbers are bytes. Each such config is an [Error], and [Soc.create]
   reports it rather than failing inside the cache. *)
let test_l2_geometry_validated () =
  let bad =
    [ ("768 KB", { Soc_config.default with l2_size_bytes = 768 * 1024 });
      ("48 B line", { Soc_config.default with l2_line_bytes = 48; l2_size_bytes = 48 * 16 * 1024 });
      ("256 ways", { Soc_config.default with l2_ways = 256; l2_size_bytes = 256 * 64 * 64 });
      ("0 B line", { Soc_config.default with l2_line_bytes = 0 }) ]
  in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) (name ^ ": validate refuses") true
        (Result.is_error (Soc_config.validate cfg));
      match Soc.create cfg with
      | _ -> Alcotest.failf "%s: Soc.create accepted it" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ ": reported by validate") true
            (String.starts_with ~prefix:"Soc: " msg))
    bad;
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "valid geometry" true (Soc_config.validate cfg = Ok ()))
    [ Soc_config.default;
      { Soc_config.default with l2_ways = 255; l2_size_bytes = 255 * 64 * 64 };
      { Soc_config.default with l2_ways = 3; l2_size_bytes = 3 * 64 * 1024 } ]

let test_host_access_roundtrip () =
  let soc = Soc.create (Soc_config.with_functional true Soc_config.default) in
  let core = Soc.core soc 0 in
  let va = Soc.alloc soc core ~bytes:9000 in
  let data = Array.init 9000 (fun i -> (i mod 256) - 128) in
  Soc.host_write_i8 soc core ~vaddr:va data;
  Alcotest.(check (array int)) "i8 roundtrip across pages" data
    (Soc.host_read_i8 soc core ~vaddr:va ~n:9000);
  let words = Array.init 100 (fun i -> (i * 1_000_003) - 50_000_000) in
  Soc.host_write_i32 soc core ~vaddr:(va + 4096) words;
  Alcotest.(check (array int)) "i32 roundtrip" words
    (Soc.host_read_i32 soc core ~vaddr:(va + 4096) ~n:100)

let test_fence_drains () =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let ctl = Soc.controller core in
  let va = Soc.alloc soc core ~bytes:(1 lsl 16) in
  let ops =
    Kernels.matmul_ops Gemmini.Params.default ~a:va ~b:va ~out:(va + 32768)
      ~m:64 ~k:64 ~n:64 ()
    @ [ Kernels.fence ]
  in
  ignore (Soc.run_program soc core (List.to_seq ops));
  (* After a fence, the issue cursor has caught up with all pipelines. *)
  Alcotest.(check int) "now = finish after fence"
    (Gemmini.Controller.finish_time ctl)
    (Gemmini.Controller.now ctl)

let test_controller_stats () =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let va = Soc.alloc soc core ~bytes:(1 lsl 16) in
  let ops =
    Kernels.matmul_ops Gemmini.Params.default ~a:va ~b:va ~out:(va + 32768)
      ~m:32 ~k:32 ~n:32 ()
    @ [ Kernels.fence ]
  in
  ignore (Soc.run_program soc core (List.to_seq ops));
  let s = Gemmini.Controller.stats (Soc.controller core) in
  Alcotest.(check int) "macs counted" (32 * 32 * 32) s.Gemmini.Controller.macs;
  Alcotest.(check int) "computes = 8 blocks" 8 s.Gemmini.Controller.computes;
  Alcotest.(check bool) "loads happened" true (s.Gemmini.Controller.loads > 0);
  Alcotest.(check bool) "stores happened" true (s.Gemmini.Controller.stores > 0);
  Alcotest.(check bool) "utilization sane" true
    (let u = Gemmini.Controller.utilization (Soc.controller core) in
     u > 0. && u <= 1.

     )

let test_dual_core_contention () =
  (* Two cores running the same workload on a shared memory system must
     each be at least as slow as one core running alone, and the combined
     DRAM traffic roughly doubles. *)
  let solo_soc = Soc.create Soc_config.default in
  let solo = Runtime.run solo_soc ~core:0 small_model ~mode in
  let dual_soc = Soc.create Soc_config.dual_core in
  let rs = Runtime.run_parallel dual_soc [| (small_model, mode); (small_model, mode) |] in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "contention slows cores" true
        (r.Runtime.r_total_cycles >= solo.Runtime.r_total_cycles))
    rs;
  let solo_dram = Gem_mem.Dram.bytes_read (Soc.dram solo_soc) in
  let dual_dram = Gem_mem.Dram.bytes_read (Soc.dram dual_soc) in
  Alcotest.(check bool) "dual traffic > 1.5x solo" true
    (float_of_int dual_dram > 1.5 *. float_of_int solo_dram)

let test_parallel_single_equivalence () =
  (* run_parallel with one program must agree with run_program. *)
  let soc1 = Soc.create Soc_config.default in
  let r1 = Runtime.run soc1 ~core:0 small_model ~mode in
  let soc2 = Soc.create Soc_config.default in
  let r2 = (Runtime.run_parallel soc2 [| (small_model, mode) |]).(0) in
  Alcotest.(check int) "same cycles" r1.Runtime.r_total_cycles r2.Runtime.r_total_cycles

let test_determinism () =
  let run () =
    let soc = Soc.create Soc_config.dual_core in
    let rs = Runtime.run_parallel soc [| (small_model, mode); (small_model, mode) |] in
    (rs.(0).Runtime.r_total_cycles, rs.(1).Runtime.r_total_cycles)
  in
  Alcotest.(check (pair int int)) "dual-core sim is deterministic" (run ()) (run ())

(* --- the interleaver --------------------------------------------------------

   [Soc.run_parallel] is the SoC's only multi-core driver: the live core
   whose issue cursor is earliest runs its next op, ties going to the
   lowest core index. Host work advances only its own core's cursor and
   markers cost nothing, so programs built from the two pin the schedule
   exactly. *)

let cores_config n =
  Soc_config.with_cores
    (List.init n (fun _ -> Soc_config.default_core))
    Soc_config.default

(* Runs [programs] (lists of [`Work n] / [`Mark]) and returns the
   markers' (core, cursor) log in execution order plus the finish times. *)
let interleave ?(cores = 2) programs =
  let soc = Soc.create (cores_config cores) in
  let log = ref [] in
  let to_op i = function
    | `Work cycles -> Soc.Host_work { cycles; tag = "work" }
    | `Mark ->
        Soc.Marker
          (fun c ->
            log := (i, Gemmini.Controller.now (Soc.controller c)) :: !log)
  in
  (* Each program is one step: the interleaver still picks a core before
     every op, not every step. *)
  let program i p =
    Soc.program
      (Seq.return (Seq.return (fun emit -> List.iter (fun x -> emit (to_op i x)) p)))
  in
  let finish = Soc.run_parallel soc (Array.mapi program programs) in
  (List.rev !log, Array.to_list finish, soc)

let log_t = Alcotest.(list (pair int int))

let test_interleave_earliest_first () =
  let log, finish, _ =
    interleave
      [|
        [ `Work 10; `Mark; `Work 10; `Mark; `Work 10; `Mark ];
        [ `Work 15; `Mark; `Work 15; `Mark ];
      |]
  in
  Alcotest.check log_t "earliest cursor runs next"
    [ (0, 10); (1, 15); (0, 20); (0, 30); (1, 30) ]
    log;
  Alcotest.(check (list int)) "per-core finish times" [ 30; 30 ] finish

let test_interleave_ties () =
  let prog = [ `Mark; `Work 5; `Mark; `Work 5; `Mark ] in
  let log, finish, _ = interleave ~cores:3 [| prog; prog; prog |] in
  Alcotest.check log_t "equal cursors go in core order"
    [
      (0, 0); (1, 0); (2, 0);
      (0, 5); (1, 5); (2, 5);
      (0, 10); (1, 10); (2, 10);
    ]
    log;
  Alcotest.(check (list int)) "per-core finish times" [ 10; 10; 10 ] finish

let test_interleave_empty_program () =
  (* A core with nothing to run retires at once and never blocks the
     others, even though its cursor stays earliest. *)
  let log, finish, _ = interleave [| []; [ `Work 7; `Mark; `Work 3; `Mark ] |] in
  Alcotest.check log_t "busy core runs alone" [ (1, 7); (1, 10) ] log;
  Alcotest.(check (list int)) "idle core finishes at zero" [ 0; 10 ] finish

let test_interleave_shape () =
  let _, finish, soc = interleave [| [ `Work 4 ] |] in
  Alcotest.(check (list int)) "one program on a dual-core SoC" [ 4 ] finish;
  Alcotest.(check int) "the unused core never moves" 0
    (Gemmini.Controller.now (Soc.controller (Soc.core soc 1)));
  let _, finish, _ = interleave [||] in
  Alcotest.(check (list int)) "no programs, no finish times" [] finish;
  Alcotest.check_raises "more programs than cores"
    (Invalid_argument "Soc.run_parallel: more programs than cores")
    (fun () -> ignore (interleave [| []; []; [] |]))

(* --- multi-core invariance --------------------------------------------------

   Everything observable about a finished multi-core run: per-core cycle
   counts, the rendered engine utilization table (requests/busy/wait for
   every component) and the full SoC snapshot (controllers, caches, TLBs,
   page tables, injection cursors). Neighbouring cores alternate im2col
   placement so they run asymmetric programs and an interleaving bug
   cannot hide behind symmetry. *)

let squeezenet16 = Gem_dnn.Model_zoo.(scale_model ~factor:16 squeezenet)
let mobilenetv2_32 = Gem_dnn.Model_zoo.(scale_model ~factor:32 mobilenetv2)

let jobs ?(cores = 2) model =
  Array.init cores (fun i ->
      (model, Runtime.Accel { im2col_on_accel = i mod 2 = 0 }))

let fingerprint soc rs =
  ( Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs),
    Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ()),
    Jsonx.to_string (Soc.snapshot soc) )

let check_fingerprint label (c0, p0, s0) (c1, p1, s1) =
  Alcotest.(check (list int)) (label ^ ": cycle counts") c0 c1;
  Alcotest.(check string) (label ^ ": utilization table") p0 p1;
  Alcotest.(check string) (label ^ ": SoC snapshot") s0 s1

(* One run, optionally with a counting sink attached (which makes the
   engine live: every acquire builds and emits an event), under the
   self-profiler (which wraps every op in probes), or with fault
   injection armed (which covers the retry path). Returns the
   fingerprint, the fault trace, the number of events the sink saw, and
   the phases and anomalies (orphan, forced leaves) a probed run
   recorded. *)
let observed_run ?(cores = 2) ?(inject = false) ?(probed = false) ~sink model
    =
  let module P = Gem_obs.Profile in
  let soc = Soc.create (cores_config cores) in
  if inject then Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let events = ref 0 in
  if sink then Engine.add_sink (Soc.engine soc) (fun _ -> incr events);
  if probed then P.enable ();
  let profiled = ref ([], (0, 0)) in
  let rs =
    Fun.protect
      ~finally:(fun () ->
        if probed then begin
          P.disable ();
          profiled := (P.phases (), P.anomalies ());
          P.reset ()
        end)
      (fun () ->
        Runtime.run_parallel ~policy:Runtime.Retry_map soc
          (jobs ~cores model))
  in
  let faults =
    Array.to_list rs
    |> List.concat_map (fun r ->
           List.map
             (fun fr ->
               fr.Runtime.fr_action ^ " "
               ^ Gem_sim.Fault.to_string fr.Runtime.fr_fault)
             r.Runtime.r_faults)
  in
  (fingerprint soc rs, faults, !events, !profiled)

let check_sink_invariance ?cores model name =
  let label = Printf.sprintf "%s at %d cores" name (Option.value cores ~default:2) in
  let quiet, _, quiet_events, _ = observed_run ?cores ~sink:false model in
  let observed, _, observed_events, _ =
    observed_run ?cores ~sink:true model
  in
  Alcotest.(check int) (label ^ ": quiet run emits nothing") 0 quiet_events;
  Alcotest.(check bool) (label ^ ": sink saw events") true (observed_events > 0);
  check_fingerprint (label ^ ": sink vs quiet") quiet observed

let test_sink_invariance () =
  let module P = Gem_obs.Profile in
  P.reset ();
  let quiet, quiet_faults, quiet_events, _ =
    observed_run ~inject:true ~sink:false squeezenet16
  in
  Alcotest.(check int) "disabled profiler records no phases" 0
    (List.length (P.phases ()));
  let observed, observed_faults, observed_events, _ =
    observed_run ~inject:true ~sink:true squeezenet16
  in
  let probed, probed_faults, _, (_, (orphans, _)) =
    observed_run ~inject:true ~probed:true ~sink:false squeezenet16
  in
  (* A trap unwinds the probe frames open under it and the next leave
     force-pops them, so only orphan leaves must stay at zero here. *)
  Alcotest.(check int) "trapped probed run: no orphan leaves" 0 orphans;
  Alcotest.(check int) "quiet run emits nothing" 0 quiet_events;
  Alcotest.(check bool) "sink saw events" true (observed_events > 0);
  Alcotest.(check bool) "injection fired" true (quiet_faults <> []);
  check_fingerprint "sink vs quiet" quiet observed;
  Alcotest.(check (list string)) "sink fault trace" quiet_faults observed_faults;
  check_fingerprint "probed vs quiet" quiet probed;
  Alcotest.(check (list string)) "probed fault trace" quiet_faults probed_faults;
  (* Without traps every probe frame closes where it opened. *)
  let clean, _, _, _ = observed_run ~sink:false squeezenet16 in
  let clean_probed, _, _, (phases, anomalies) =
    observed_run ~probed:true ~sink:false squeezenet16
  in
  check_fingerprint "clean probed vs quiet" clean clean_probed;
  Alcotest.(check bool) "probed run records phases" true (phases <> []);
  Alcotest.(check (pair int int)) "clean probed run: no orphan or forced leaves"
    (0, 0) anomalies

let test_quad_core_sink_invariance () =
  check_sink_invariance ~cores:4 squeezenet16 "squeezenet/16"

let test_mobilenet_sink_invariance () =
  List.iter
    (fun cores -> check_sink_invariance ~cores mobilenetv2_32 "mobilenetv2/32")
    [ 1; 2; 4 ]

(* --- compute runs --------------------------------------------------------------

   A kernel hands the controller a tile step's preload/compute nest as one
   [Compute_run] op. Executed whole (quiet engine, box checked once) or
   as its commands (each validated), it must leave the same SoC; a live
   engine must see the same events either way; and a run that does not
   fit must trap exactly where its commands would. *)

(* 40x50x35 in 16-wide blocks, ragged in every dimension. *)
let fitting_run =
  { Gemmini.Tiled_matmul.cr_m = 40; cr_k = 50; cr_n = 35; cr_i0 = 0; cr_j0 = 0;
    cr_k0 = 0; cr_vi = 3; cr_vj = 3; cr_vk = 4; cr_tk = 4; cr_tj = 3;
    cr_a_base = 0; cr_b_base = 384; cr_accumulate = false; cr_dim = 16 }

(* [run] on a fresh SoC, whole or as its commands, after a WS config;
   returns the SoC, the events a sink saw (when [sink]) and the trap that
   ended it, if any. *)
let execute_run ~fused ~sink run =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let events = ref [] in
  if sink then Engine.add_sink (Soc.engine soc) (fun e -> events := e :: !events);
  let trap =
    try
      Soc.exec_op core
        (Soc.Insn
           (Gemmini.Isa.Config_ex
              { dataflow = `WS; activation = Gemmini.Peripheral.No_activation;
                sys_shift = 0; a_transpose = false; b_transpose = false }));
      if fused then Soc.exec_op core (Soc.Compute_run run)
      else Gemmini.Tiled_matmul.run_commands run (fun i -> Soc.exec_op core (Soc.Insn i));
      None
    with Gem_sim.Fault.Trap f -> Some (Gem_sim.Fault.to_string f)
  in
  (soc, List.rev !events, trap)

let check_run_equivalence label run =
  List.iter
    (fun sink ->
      let label = Printf.sprintf "%s (%s)" label (if sink then "live" else "quiet") in
      let soc_f, events_f, trap_f = execute_run ~fused:true ~sink run in
      let soc_c, events_c, trap_c = execute_run ~fused:false ~sink run in
      Alcotest.(check (option string)) (label ^ ": trap") trap_c trap_f;
      Alcotest.(check bool) (label ^ ": events") true (events_c = events_f);
      Alcotest.(check bool) (label ^ ": Engine.latency") true
        (Engine.latency (Soc.engine soc_c) = Engine.latency (Soc.engine soc_f));
      Alcotest.(check string) (label ^ ": SoC snapshot")
        (Jsonx.to_string (Soc.snapshot soc_c))
        (Jsonx.to_string (Soc.snapshot soc_f));
      Alcotest.(check int) (label ^ ": Engine.now")
        (Engine.now (Soc.engine soc_c)) (Engine.now (Soc.engine soc_f)))
    [ false; true ]

let test_compute_run_equals_commands () =
  let p = Gemmini.Params.default in
  let sp_rows = Gemmini.Params.sp_rows p in
  let n = ref 0 in
  Gemmini.Tiled_matmul.run_commands fitting_run (fun _ -> incr n);
  Alcotest.(check int) "two commands per block" (2 * 3 * 3 * 4) !n;
  Alcotest.(check bool) "fits" true (Gemmini.Tiled_matmul.run_fits p fitting_run);
  check_run_equivalence "fitting run" fitting_run;
  check_run_equivalence "accumulating run"
    { fitting_run with cr_i0 = 1; cr_vi = 2; cr_k0 = 2; cr_vk = 2; cr_accumulate = true };
  (* The last A block (rows a_base + 176 .. + 184) ends 8 rows past the
     scratchpad: the compute reading it traps, after every earlier command
     ran. *)
  let over = { fitting_run with cr_a_base = sp_rows - 176 } in
  Alcotest.(check bool) "over the scratchpad does not fit" false
    (Gemmini.Tiled_matmul.run_fits p over);
  check_run_equivalence "run over the scratchpad" over;
  let _, _, trap = execute_run ~fused:true ~sink:false over in
  Alcotest.(check bool) "it traps" true (Option.is_some trap);
  (* Too wide a block for this array: refused by the box check, then by
     the first Preload. *)
  let wide = { fitting_run with cr_dim = 32; cr_b_base = 2 * 3 * 4 * 32 } in
  Alcotest.(check bool) "wider than DIM does not fit" false
    (Gemmini.Tiled_matmul.run_fits p wide);
  check_run_equivalence "run wider than DIM" wide

(* A quiet multi-core run dispatches each compute run whole, so its cores
   interleave around whole runs; a live one dispatches their commands.
   Both must end in the same state, with the same queue-latency
   histograms, on the network with the most runs. *)
let test_fused_runs_equal_expanded () =
  let resnet50_8 = Gem_dnn.Model_zoo.(scale_model ~factor:8 resnet50) in
  let run ~sink =
    let soc = Soc.create Soc_config.dual_core in
    if sink then Engine.add_sink (Soc.engine soc) ignore;
    let rs = Runtime.run_parallel soc (jobs resnet50_8) in
    (fingerprint soc rs, Engine.latency (Soc.engine soc))
  in
  let quiet, quiet_latency = run ~sink:false in
  let live, live_latency = run ~sink:true in
  check_fingerprint "resnet50/8 at 2 cores: quiet vs live" live quiet;
  Alcotest.(check bool) "resnet50/8 at 2 cores: Engine.latency" true
    (live_latency = quiet_latency)

let check_restore_continuation ~cores =
  (* Round 1 on one SoC, snapshot, round 2 on the same SoC; a fresh SoC
     restored from the round-1 snapshot must finish round 2 identically. *)
  let soc = Soc.create (cores_config cores) in
  ignore (Runtime.run_parallel soc (jobs ~cores squeezenet16));
  let snap = Soc.snapshot soc in
  let continued =
    fingerprint soc (Runtime.run_parallel soc (jobs ~cores mobilenetv2_32))
  in
  let fresh = Soc.create (cores_config cores) in
  Soc.restore fresh snap;
  Alcotest.(check string) "restore is lossless" (Jsonx.to_string snap)
    (Jsonx.to_string (Soc.snapshot fresh));
  let restored =
    fingerprint fresh (Runtime.run_parallel fresh (jobs ~cores mobilenetv2_32))
  in
  check_fingerprint "restored round 2" continued restored

let test_restore_continuation () = check_restore_continuation ~cores:2
let test_quad_core_restore () = check_restore_continuation ~cores:4

(* --- bulk DMA rows vs the per-row walk -------------------------------------

   A quiet SoC charges runs of DMA rows that stay in one page in bulk;
   attaching a sink (which makes the engine live) forces the per-row
   walk. Twin SoCs replay one seeded random transfer sequence and
   must agree on every call's result and on all state afterwards. *)

module Dma = Gemmini.Dma
module Rng = Gem_util.Rng

let twin_config ~cores ~filters =
  cores_config cores
  |> Soc_config.with_l2_size (16 * 1024)
  |> Soc_config.map_tlb (fun tlb ->
         { tlb with Gem_vm.Hierarchy.filter_registers = filters;
           shared_entries = 8 })

let region_bytes = 320 * 1024

(* One transfer drawn from [rng]: mvin or timing-only mvout, rows 1-64,
   row_bytes 1-128, strides 0 / sub-line (either sign) / line-sized /
   page-crossing, bases that straddle lines and pages; one draw in six is
   an 8 KB sweep that evicts half of the 16 KB L2. The base is an offset
   into the core's region, clear of its start for negative strides. *)
let random_transfer rng ~cores =
  let core = Rng.int rng cores in
  let write = Rng.bool rng in
  let page = Gem_vm.Page_table.page_size in
  if Rng.int rng 6 = 0 then
    (core, write, Rng.int rng (region_bytes - (8 * 1024)), 128, 64, 128)
  else
    let rows = Rng.int_in rng ~lo:1 ~hi:64 in
    let row_bytes = Rng.int_in rng ~lo:1 ~hi:128 in
    let stride =
      match Rng.int rng 7 with
      | 0 -> 0
      | 1 -> Rng.int_in rng ~lo:1 ~hi:63
      | 2 -> -Rng.int_in rng ~lo:1 ~hi:63
      | 3 -> 64
      | 4 -> page
      | 5 -> Rng.int_in rng ~lo:(page - 8) ~hi:(page + 8)
      | _ -> Rng.int_in rng ~lo:65 ~hi:600
    in
    let base =
      match Rng.int rng 3 with
      | 0 -> Rng.int rng page
      | 1 -> (page * Rng.int_in rng ~lo:1 ~hi:8) - Rng.int_in rng ~lo:1 ~hi:64
      | _ -> (64 * Rng.int_in rng ~lo:1 ~hi:64) - Rng.int_in rng ~lo:1 ~hi:8
    in
    let clear = if stride < 0 then -stride * (rows - 1) else 0 in
    (core, write, clear + base, stride, rows, row_bytes)

(* A page run with a new line per row: rows 2-64 of 1-64 B at a stride of
   one or two lines, at any offset into the core's region. *)
let line_stride_transfer rng ~cores =
  let rows = Rng.int_in rng ~lo:2 ~hi:64 in
  ( Rng.int rng cores, Rng.bool rng,
    Rng.int rng (region_bytes - (128 * 64)),
    64 * Rng.int_in rng ~lo:1 ~hi:2, rows, Rng.int_in rng ~lo:1 ~hi:64 )

(* Rows of 2-8 B at most a line apart, the first straddling two lines:
   with filter registers on the bus issues a row a cycle, while each row
   takes one or two 2-cycle L2 port slots, so the port saturates and the
   queue waits grow along the run. *)
let straddling_transfer rng ~cores =
  let row_bytes = Rng.int_in rng ~lo:2 ~hi:8 in
  let line = 64 * Rng.int_in rng ~lo:1 ~hi:((region_bytes / 64) - 128) in
  ( Rng.int rng cores, Rng.bool rng,
    line - Rng.int_in rng ~lo:1 ~hi:(row_bytes - 1),
    Rng.int_in rng ~lo:row_bytes ~hi:64, Rng.int_in rng ~lo:2 ~hi:64,
    row_bytes )

(* Line runs: rows of 1-16 B at stride 0 or a sub-line stride of either
   sign (up to the row length, or up to 32 B), the first anywhere in its
   line, so a run may stop where a row straddles the line's end and go on
   in the next line. With filter registers on the bus issues a row a
   cycle against the port's 2-cycle slots, so long runs saturate the
   port; with them off the waits drain along the run. *)
let same_line_transfer rng ~cores =
  let rows = Rng.int_in rng ~lo:2 ~hi:64 in
  let row_bytes = Rng.int_in rng ~lo:1 ~hi:16 in
  let stride =
    let sign = if Rng.bool rng then 1 else -1 in
    match Rng.int rng 3 with
    | 0 -> 0
    | 1 -> sign * Rng.int_in rng ~lo:1 ~hi:row_bytes
    | _ -> sign * Rng.int_in rng ~lo:1 ~hi:32
  in
  let line = 64 * Rng.int_in rng ~lo:1 ~hi:((region_bytes / 64) - 128) in
  let clear = if stride < 0 then -stride * (rows - 1) else 0 in
  (Rng.int rng cores, Rng.bool rng, clear + line + Rng.int rng 64, stride,
   rows, row_bytes)

(* Chains: mvins and mvouts alternate at random over pages 2-3 of the
   core's region, 1-16 rows of 1-128 B at strides up to 300 B of either
   sign. Most transfers start in the page the last transfer of their
   direction ended in, so row 0 joins its page run; some cross into a
   neighbouring page or start in the other one. *)
let chain_transfer rng ~cores =
  let page = Gem_vm.Page_table.page_size in
  ( Rng.int rng cores, Rng.bool rng,
    (page * Rng.int_in rng ~lo:2 ~hi:3) + Rng.int rng page,
    Rng.int_in rng ~lo:(-300) ~hi:300, Rng.int_in rng ~lo:1 ~hi:16,
    Rng.int_in rng ~lo:1 ~hi:128 )

(* Multi-line rows: 1-32 rows of 65-256 B at a stride of -4 to 4 lines,
   so on a cold L2 a row's first lines miss and the lines it shares with
   the previous row hit. *)
let multi_line_transfer rng ~cores =
  let rows = Rng.int_in rng ~lo:1 ~hi:32 in
  let stride = 64 * Rng.int_in rng ~lo:(-4) ~hi:4 in
  let clear = if stride < 0 then -stride * (rows - 1) else 0 in
  ( Rng.int rng cores, Rng.bool rng,
    clear + Rng.int rng (region_bytes - (160 * 64)),
    stride, rows, Rng.int_in rng ~lo:65 ~hi:256 )

(* Replays [steps] transfers drawn by [draw] on [soc] ([cold] drops the L2
   before each, so every line misses to DRAM); returns every call's
   (engine_free, finish) and the fault trace. A page fault (injected
   unmap) is serviced by remapping the page, as the runtime does. With
   [unmap], one step in eight first unmaps page 2 or 3 of the core's
   region, as an injected unmap does, so the next transfer there faults
   after its walk has moved the hierarchy's last page. *)
let replay ?(draw = random_transfer) ?(cold = false) ?(unmap = false) soc
    ~seed ~steps =
  let cores = Array.length (Soc.cores soc) in
  let bases = Array.map (fun c -> Soc.alloc soc c ~bytes:region_bytes) (Soc.cores soc) in
  let clocks = Array.make cores 0 in
  let rng = Rng.create ~seed in
  let results = ref [] and faults = ref [] in
  for _ = 1 to steps do
    let core, write, base, stride_bytes, rows, row_bytes = draw rng ~cores in
    if cold then Gem_mem.Cache.invalidate_all (Soc.l2 soc);
    let c = Soc.core soc core in
    if unmap && Rng.int rng 8 = 0 then
      ignore
        (Soc.unmap_page soc c
           ~vaddr:(bases.(core) + (Gem_vm.Page_table.page_size * Rng.int_in rng ~lo:2 ~hi:3)));
    let dma = Gemmini.Controller.dma (Soc.controller c) in
    let now = clocks.(core) + Rng.int rng 400 in
    let vaddr = bases.(core) + base in
    match
      if write then
        Dma.mvout_timing_rows dma ~now ~vaddr ~stride_bytes ~rows ~row_bytes
      else ignore (Dma.mvin dma ~now ~vaddr ~stride_bytes ~rows ~row_bytes);
      (Dma.engine_free dma, Dma.finish dma)
    with
    | (engine_free, _) as r ->
        results := r :: !results;
        clocks.(core) <- engine_free
    | exception Gem_sim.Fault.Trap f ->
        faults := Gem_sim.Fault.to_string f :: !faults;
        clocks.(core) <- f.Gem_sim.Fault.cycle;
        (match f.Gem_sim.Fault.cause with
        | Gem_sim.Fault.Page_fault { vpn; _ } ->
            Soc.map_page soc c ~vaddr:(vpn * Gem_vm.Page_table.page_size)
        | _ -> ())
  done;
  (List.rev !results, List.rev !faults)

let twin_run ?inject ?(what = "random") ?draw ?cold ?unmap ~cores ~filters
    ~seed () =
  let cfg = twin_config ~cores ~filters in
  let run ~sink =
    let soc = Soc.create cfg in
    if sink then Engine.add_sink (Soc.engine soc) ignore;
    Option.iter (fun rate -> Soc.arm_injection soc ~seed ~rate) inject;
    let results, faults = replay ?draw ?cold ?unmap soc ~seed ~steps:300 in
    (soc, results, faults)
  in
  let label =
    Printf.sprintf "%s transfers, %d core(s), filters %b, seed %d" what cores
      filters seed
  in
  let quiet, q_results, q_faults = run ~sink:false in
  let walked, w_results, w_faults = run ~sink:true in
  let eq, ew = (Soc.engine quiet, Soc.engine walked) in
  Alcotest.(check (list (pair int int)))
    (label ^ ": every call's engine_free/finish") w_results q_results;
  Alcotest.(check bool) (label ^ ": Engine.stats") true
    (Engine.stats eq = Engine.stats ew);
  Alcotest.(check bool) (label ^ ": Engine.latency histograms") true
    (Engine.latency eq = Engine.latency ew);
  Alcotest.(check string) (label ^ ": SoC snapshot")
    (Jsonx.to_string (Soc.snapshot walked))
    (Jsonx.to_string (Soc.snapshot quiet));
  (q_faults, w_faults)

(* Engine.acquire calls one warm 16-row mvin makes. With [fresh], an mvin
   from the next page ran last, so the read filter register holds
   another page than the measured row 0's. *)
let mvin_acquires ~fresh ~stride_bytes ~row_bytes ~sink =
  let module P = Gem_obs.Profile in
  let soc = Soc.create Soc_config.default in
  if sink then Engine.add_sink (Soc.engine soc) ignore;
  let core = Soc.core soc 0 in
  let dma = Gemmini.Controller.dma (Soc.controller core) in
  let vaddr = Soc.alloc soc core ~bytes:8192 in
  let mvin now vaddr =
    ignore (Dma.mvin dma ~now ~vaddr ~stride_bytes ~rows:16 ~row_bytes)
  in
  mvin 0 vaddr;
  if fresh then mvin 5_000 (vaddr + 4096);
  P.reset ();
  P.enable ();
  Fun.protect ~finally:P.disable (fun () -> mvin 10_000 vaddr);
  let calls =
    List.fold_left
      (fun acc ph -> if ph.P.ph_name = P.acquire then acc + ph.P.ph_calls else acc)
      0 (P.phases ())
  in
  P.reset ();
  calls

let test_bulk_rows_equal_walk () =
  (* On the quiet SoC, row 0 in the page the read filter register holds
     joins the other 15 rows' page run, and takes no Engine.acquire; in a
     fresh page it takes a bus and a port slot. The live one walks every
     row, whether the rows share row 0's line (4 B at stride 4) or each
     start a new one (16 B at stride 64). *)
  List.iter
    (fun (what, stride_bytes, row_bytes) ->
      List.iter
        (fun (fresh, page, calls) ->
          Alcotest.(check int)
            (Printf.sprintf "quiet %s rows, row 0 in %s page" what page)
            calls
            (mvin_acquires ~fresh ~stride_bytes ~row_bytes ~sink:false);
          Alcotest.(check int)
            (Printf.sprintf "live engine walks every %s row, %s page" what page)
            32
            (mvin_acquires ~fresh ~stride_bytes ~row_bytes ~sink:true))
        [ (false, "the filter's", 0); (true, "a fresh", 2) ])
    [ ("same-line", 4, 4); ("line-stride", 64, 16) ];
  List.iter
    (fun (cores, filters, seed) ->
      List.iter
        (fun (what, draw, cold) ->
          let q_faults, _ =
            twin_run ~what ~draw ~cold ~cores ~filters ~seed ()
          in
          Alcotest.(check (list string)) "no faults without injection" []
            q_faults)
        [ ("random", random_transfer, false);
          ("cold line-stride", line_stride_transfer, true);
          ("line-straddling", straddling_transfer, false);
          ("same-line runs", same_line_transfer, false);
          ("same-page chains", chain_transfer, false);
          ("cold multi-line", multi_line_transfer, true) ])
    [ (1, true, 1); (1, false, 2); (2, true, 3); (2, false, 4) ];
  List.iter
    (fun (cores, filters, seed) ->
      let q_faults, w_faults =
        twin_run ~what:"unmapped chains" ~draw:chain_transfer ~unmap:true
          ~cores ~filters ~seed ()
      in
      Alcotest.(check bool) "an unmapped page faulted" true (q_faults <> []);
      Alcotest.(check (list string)) "unmap fault trace" w_faults q_faults)
    [ (1, true, 6); (1, false, 7); (2, true, 8); (2, false, 9) ];
  let q_faults, w_faults =
    twin_run ~inject:0.002 ~cores:2 ~filters:true ~seed:5 ()
  in
  Alcotest.(check bool) "injection fired" true (q_faults <> []);
  Alcotest.(check (list string)) "injected fault trace" w_faults q_faults

let test_cpu_model_sanity () =
  let open Gem_cpu.Cpu_model in
  Alcotest.(check bool) "boom beats rocket" true
    (conv_macs_cycles Boom ~macs:1000000 < conv_macs_cycles Rocket ~macs:1000000);
  Alcotest.(check bool) "matmul cheaper than conv per mac" true
    (matmul_macs_cycles Rocket ~macs:1000 < conv_macs_cycles Rocket ~macs:1000);
  Alcotest.(check int) "im2col boom = rocket/2"
    (im2col_cycles Rocket ~patch_elems:10000 / 2)
    (im2col_cycles Boom ~patch_elems:10000);
  Alcotest.(check bool) "baseline ordering matches MAC counts" true
    (Gem_sw.Lower.cpu_only_cycles Rocket Gem_dnn.Model_zoo.resnet50
     > Gem_sw.Lower.cpu_only_cycles Rocket Gem_dnn.Model_zoo.squeezenet)

let suite =
  [
    Alcotest.test_case "allocation: distinct physical backing" `Quick test_alloc_distinct;
    Alcotest.test_case "host access roundtrips" `Quick test_host_access_roundtrip;
    Alcotest.test_case "fence drains pipelines" `Quick test_fence_drains;
    Alcotest.test_case "controller statistics" `Quick test_controller_stats;
    Alcotest.test_case "dual-core contention" `Quick test_dual_core_contention;
    Alcotest.test_case "run_parallel == run for one core" `Quick test_parallel_single_equivalence;
    Alcotest.test_case "multi-core determinism" `Quick test_determinism;
    Alcotest.test_case "interleave: earliest cursor runs next" `Quick
      test_interleave_earliest_first;
    Alcotest.test_case "interleave: ties go to the lowest core" `Quick
      test_interleave_ties;
    Alcotest.test_case "interleave: empty program retires at once" `Quick
      test_interleave_empty_program;
    Alcotest.test_case "interleave: program count vs cores" `Quick
      test_interleave_shape;
    Alcotest.test_case "dual-core: sink and probed runs equal quiet run" `Quick
      test_sink_invariance;
    Alcotest.test_case "quad-core: sink run equals quiet run" `Quick
      test_quad_core_sink_invariance;
    Alcotest.test_case "mobilenetv2: sink run equals quiet at 1/2/4 cores"
      `Quick test_mobilenet_sink_invariance;
    Alcotest.test_case "compute run == its commands (quiet, live, trap)" `Quick
      test_compute_run_equals_commands;
    Alcotest.test_case "dual-core: fused runs equal expanded (resnet50/8)" `Quick
      test_fused_runs_equal_expanded;
    Alcotest.test_case "dual-core: restored round 2 equals continued" `Quick
      test_restore_continuation;
    Alcotest.test_case "quad-core: restored round 2 equals continued" `Quick
      test_quad_core_restore;
    Alcotest.test_case "DMA: bulk row runs equal the per-row walk" `Quick
      test_bulk_rows_equal_walk;
    Alcotest.test_case "CPU cost model sanity" `Quick test_cpu_model_sanity;
    Alcotest.test_case "L2 geometry: validate refuses what the cache would" `Quick
      test_l2_geometry_validated;
  ]
