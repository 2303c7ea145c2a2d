(* Domain-parallel simulation: the Domains > 1 driver must be
   byte-identical to the sequential reference at every (model, cores,
   domains) point — cycle counts, the rendered engine profile, and the
   full SoC snapshot — including under deterministic fault injection,
   across checkpoint/restore, and for the serving scheduler's reports.
   The traced path falls back to the sequential driver, which is also
   pinned here. *)

module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Engine = Gem_sim.Engine
module Fault = Gem_sim.Fault
module Jsonx = Gem_util.Jsonx
module Zoo = Gem_dnn.Model_zoo

let squeezenet16 = Zoo.scale_model ~factor:16 Zoo.squeezenet
let mobilenetv2_32 = Zoo.scale_model ~factor:32 Zoo.mobilenetv2

let config ~cores =
  Soc_config.with_cores
    (List.init cores (fun _ -> Soc_config.default_core))
    Soc_config.default

(* Alternate the im2col placement so cores run asymmetric programs and a
   scheduling bug cannot hide behind symmetry. *)
let mode_for i = Runtime.Accel { im2col_on_accel = i mod 2 = 0 }

let jobs_for model ~cores =
  Array.init cores (fun i -> (model, mode_for i))

(* Everything observable about a finished run: per-core cycle counts, the
   rendered engine utilization table (requests/busy/wait for every
   component), and the full SoC snapshot (controllers, caches, TLBs,
   trace rings, injection cursors). *)
let fingerprint soc rs =
  let cycles =
    Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs)
  in
  let profile =
    Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ())
  in
  (cycles, profile, Jsonx.to_string (Soc.snapshot soc))

let run_point ?(inject = false) model ~cores ~domains =
  let soc = Soc.create (config ~cores) in
  if inject then Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let rs =
    Runtime.run_parallel ~policy:Runtime.Retry_map ~domains soc
      (jobs_for model ~cores)
  in
  let faults =
    List.concat_map
      (fun r ->
        List.map
          (fun fr ->
            fr.Runtime.fr_action ^ " " ^ Fault.to_string fr.Runtime.fr_fault)
          r.Runtime.r_faults)
      (Array.to_list rs)
  in
  (fingerprint soc rs, faults)

let check_point ?inject model name ~cores =
  let (ref_fp, ref_faults) = run_point ?inject model ~cores ~domains:1 in
  List.iter
    (fun domains ->
      let (fp, faults) = run_point ?inject model ~cores ~domains in
      let label what =
        Printf.sprintf "%s cores=%d domains=%d: %s" name cores domains what
      in
      let (c0, p0, s0) = ref_fp and (c1, p1, s1) = fp in
      Alcotest.(check (list int)) (label "cycle counts") c0 c1;
      Alcotest.(check string) (label "engine profile") p0 p1;
      Alcotest.(check string) (label "SoC snapshot") s0 s1;
      Alcotest.(check (list string)) (label "fault trace") ref_faults faults)
    [ 2; 4 ]

let test_stress_squeezenet () =
  List.iter (fun cores -> check_point squeezenet16 "squeezenet/16" ~cores)
    [ 1; 2; 4 ]

let test_stress_mobilenet () =
  List.iter (fun cores -> check_point mobilenetv2_32 "mobilenetv2/32" ~cores)
    [ 1; 2; 4 ]

let test_injection_identity () =
  (* Injected faults fire in shared (coordinator-serialized) ops, so the
     recovery schedule — and therefore every retry's timing — must not
     depend on the Domain count. *)
  let (_, faults) =
    run_point ~inject:true squeezenet16 ~cores:2 ~domains:1
  in
  Alcotest.(check bool) "injection fired" true (faults <> []);
  check_point ~inject:true squeezenet16 "squeezenet/16+inject" ~cores:2

let test_restore_interleaving () =
  (* Checkpoint state produced by one round of parallel inference, restore
     it into fresh SoCs, and drive a second round at different Domain
     counts: the restored-state continuation must stay byte-identical. *)
  let first_round domains =
    let soc = Soc.create (config ~cores:2) in
    ignore (Runtime.run_parallel ~domains soc (jobs_for squeezenet16 ~cores:2));
    Soc.snapshot soc
  in
  let snap = first_round 4 in
  Alcotest.(check string) "first-round snapshot matches sequential"
    (Jsonx.to_string (first_round 1))
    (Jsonx.to_string snap);
  let second_round domains =
    let soc = Soc.create (config ~cores:2) in
    Soc.restore soc snap;
    let rs =
      Runtime.run_parallel ~domains soc (jobs_for mobilenetv2_32 ~cores:2)
    in
    fingerprint soc rs
  in
  let (c1, p1, s1) = second_round 1 and (c4, p4, s4) = second_round 4 in
  Alcotest.(check (list int)) "restored continuation cycles" c1 c4;
  Alcotest.(check string) "restored continuation profile" p1 p4;
  Alcotest.(check string) "restored continuation snapshot" s1 s4

let test_traced_fallback () =
  (* An observed engine (a sink attached) forces the sequential driver
     regardless of the requested Domain count; the traced run must agree
     with the quiet parallel run cycle-for-cycle. *)
  let quiet =
    let soc = Soc.create (config ~cores:2) in
    let rs = Runtime.run_parallel ~domains:4 soc (jobs_for squeezenet16 ~cores:2) in
    Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs)
  in
  let soc = Soc.create (config ~cores:2) in
  let events = ref 0 in
  Engine.add_sink (Soc.engine soc) (fun _ -> incr events);
  let rs = Runtime.run_parallel ~domains:4 soc (jobs_for squeezenet16 ~cores:2) in
  Alcotest.(check bool) "sink captured events" true (!events > 0);
  Alcotest.(check (list int)) "traced run agrees with quiet parallel run"
    quiet
    (Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs))

let test_serve_identity () =
  let scenario =
    {
      Gem_serve.Serve.default with
      Gem_serve.Serve.sv_model = "mobilenetv2";
      sv_scale = 32;
      sv_arrival = Gem_serve.Arrival.Poisson { rate_rps = 4000. };
      sv_batch = Gem_serve.Batch.Fixed 2;
      sv_duration_ms = 1.5;
      sv_slos_ms = [ 2.0 ];
    }
  in
  let report domains =
    Gem_serve.Report.render (Gem_serve.Serve.run ~domains scenario)
  in
  Alcotest.(check string) "serve report identical at domains 1 vs 4"
    (report 1) (report 4)

let test_domain_overflow () =
  (* More Domains than cores (and than the machine has CPUs) must neither
     wedge nor change the schedule. *)
  check_point squeezenet16 "squeezenet/16 overcommit" ~cores:2;
  let ((c, _, _), _) = run_point squeezenet16 ~cores:1 ~domains:8 in
  let ((c', _, _), _) = run_point squeezenet16 ~cores:1 ~domains:1 in
  Alcotest.(check (list int)) "single core at domains=8" c' c

let suite =
  [
    Alcotest.test_case "squeezenet: cores x domains identity" `Quick
      test_stress_squeezenet;
    Alcotest.test_case "mobilenetv2: cores x domains identity" `Quick
      test_stress_mobilenet;
    Alcotest.test_case "fault injection identity across domains" `Quick
      test_injection_identity;
    Alcotest.test_case "checkpoint/restore continuation identity" `Quick
      test_restore_interleaving;
    Alcotest.test_case "traced run falls back and agrees" `Quick
      test_traced_fallback;
    Alcotest.test_case "serve report identity across domains" `Quick
      test_serve_identity;
    Alcotest.test_case "domain overcommit is safe" `Quick test_domain_overflow;
  ]
