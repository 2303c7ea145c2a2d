(* The execution-backend seam: the backend kinds, byte-identity of the
   cycle backend with the pre-seam runtime numbers, layer-walk conformance
   between the kinds run through [Persist.run] (same layers, same order,
   same classes, same fault-policy behaviour), estimator accuracy against
   the engine, and the analytic command-count model against the actually
   emitted streams. *)

module Backend = Gem_sw.Backend
module Persist = Gem_persist.Persist
module Backend_analytic = Gem_sw.Backend_analytic
module Runtime = Gem_sw.Runtime
module Lower = Gem_sw.Lower
module Kernels = Gem_sw.Kernels
module Layer = Gem_dnn.Layer
module Soc_config = Gem_soc.Soc_config
module Fault = Gem_sim.Fault
module Isa = Gemmini.Isa

let model ~scale name =
  match Gem_dnn.Model_zoo.find name with
  | None -> Alcotest.failf "unknown zoo model %s" name
  | Some m ->
      if scale = 1 then m else Gem_dnn.Model_zoo.scale_model ~factor:scale m

let accel_mode = Runtime.Accel { im2col_on_accel = true }

(* One job of [name] at scale 8 on the default SoC, through the run
   driver. *)
let run ?(policy = Runtime.Abort) ?watchdog backend name =
  (Persist.run
     { Persist.default with backend; policy; watchdog;
       jobs = [| (model ~scale:8 name, accel_mode) |] })
    .Persist.o_results

(* --- registry ---------------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "registry names" [ "cycle"; "analytic" ]
    (List.map Backend.kind_name Backend.all_kinds);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "kind_of_string round-trips" (Some (Backend.kind_name k))
        (Option.map Backend.kind_name (Backend.kind_of_string (Backend.kind_name k))))
    Backend.all_kinds;
  Alcotest.(check bool)
    "kind_of_string rejects junk" true
    (Backend.kind_of_string "verilate" = None)

let test_request_shape () =
  (* The job/core shape is checked when the request is built, before any
     backend runs: [profile --cores 0] reaches here with no jobs. *)
  let job = (model ~scale:8 "alexnet", accel_mode) in
  Alcotest.check_raises "no jobs" (Invalid_argument "Backend.request: no jobs")
    (fun () -> ignore (Backend.request ~config:Soc_config.default [||]));
  Alcotest.check_raises "more jobs than cores"
    (Invalid_argument "Backend.request: more jobs than cores") (fun () ->
      ignore (Backend.request ~config:Soc_config.default [| job; job |]));
  let rq = Backend.request ~config:Soc_config.dual_core [| job; job |] in
  Alcotest.(check int) "one job per core" 2 (Array.length rq.Backend.bq_jobs);
  Alcotest.(check bool) "policy defaults to Abort" true
    (rq.Backend.bq_policy = Runtime.Abort);
  Alcotest.(check (option int)) "no watchdog by default" None
    rq.Backend.bq_watchdog

(* --- cycle backend = pre-seam runtime, byte-identical ------------------------ *)

let test_cycle_byte_identity () =
  let results = run Backend.Cycle "mobilenetv2" in
  (* The seed's number for mobilenetv2 at scale 8; the Backend seam must
     not perturb the engine by a single cycle. *)
  Alcotest.(check int)
    "mobilenetv2 scale-8 total cycles" 2_928_563
    results.(0).Runtime.r_total_cycles

(* --- layer-walk conformance --------------------------------------------------- *)

let layer_shape (r : Runtime.result) =
  List.map
    (fun (l : Runtime.layer_record) ->
      (l.Runtime.lr_name, Layer.class_name l.Runtime.lr_class, l.Runtime.lr_macs))
    r.Runtime.r_layers

let test_conformance_layers () =
  List.iter
    (fun name ->
      let shapes =
        List.map (fun k -> layer_shape (run k name).(0)) Backend.all_kinds
      in
      match shapes with
      | [] | [ _ ] -> Alcotest.fail "expected at least two backends"
      | reference :: rest ->
          List.iter
            (fun s ->
              Alcotest.(check (list (triple string string int)))
                (name ^ ": same layers, order, classes, macs")
                reference s)
            rest)
    [ "squeezenet1.1"; "mobilenetv2"; "bert-base-seq128" ]

(* --- fault-policy conformance ------------------------------------------------- *)

(* Alexnet at scale 8: conv1 (~155k cycles) and fc6 (~140k) sit far above
   a 100k watchdog in both backends; every other layer is below 65k, so
   the trip set is insensitive to estimator error. *)
let test_watchdog_degrade_parity () =
  let faulted k =
    List.map
      (fun (f : Runtime.fault_record) -> (f.Runtime.fr_layer, f.Runtime.fr_action))
      (run ~policy:Runtime.Degrade ~watchdog:100_000 k "alexnet").(0).Runtime.r_faults
  in
  let expected = [ ("conv1", "degrade"); ("fc6", "degrade") ] in
  List.iter
    (fun k ->
      Alcotest.(check (list (pair string string)))
        (Backend.kind_name k ^ ": degraded layers")
        expected
        (faulted k))
    Backend.all_kinds

let test_watchdog_abort_parity () =
  List.iter
    (fun k ->
      let trapped =
        try
          ignore (run ~policy:Runtime.Abort ~watchdog:100_000 k "alexnet");
          false
        with Fault.Trap _ -> true
      in
      Alcotest.(check bool)
        (Backend.kind_name k ^ ": abort re-raises the trap")
        true trapped)
    Backend.all_kinds

(* --- estimator accuracy -------------------------------------------------------- *)

let test_analytic_accuracy () =
  List.iter
    (fun name ->
      let cycle = (run Backend.Cycle name).(0).Runtime.r_total_cycles in
      let ana = (run Backend.Analytic name).(0).Runtime.r_total_cycles in
      let err =
        Float.abs (float_of_int (ana - cycle)) /. float_of_int cycle
      in
      if err > 0.15 then
        Alcotest.failf "%s: analytic %d vs cycle %d (|err| %.1f%% > 15%%)"
          name ana cycle (100. *. err))
    [ "squeezenet1.1"; "alexnet"; "mobilenetv2" ]

(* --- command-count model vs emitted streams ------------------------------------ *)

let count_stream ops =
  let c =
    ref
      {
        Backend_analytic.mc_configs = 0;
        mc_bias_mvins = 0;
        mc_a_mvins = 0;
        mc_b_mvins = 0;
        mc_preloads = 0;
        mc_computes = 0;
        mc_mvouts = 0;
      }
  in
  List.iter
    (fun op ->
      match op with
      | Gem_soc.Soc.Insn i -> (
          let t = !c in
          match i with
          | Isa.Config_ex _ | Isa.Config_ld _ | Isa.Config_st _ ->
              c := { t with Backend_analytic.mc_configs = t.Backend_analytic.mc_configs + 1 }
          | Isa.Mvin (_, 0) ->
              c := { t with Backend_analytic.mc_a_mvins = t.Backend_analytic.mc_a_mvins + 1 }
          | Isa.Mvin (_, 1) ->
              c := { t with Backend_analytic.mc_b_mvins = t.Backend_analytic.mc_b_mvins + 1 }
          | Isa.Mvin (_, _) ->
              c := { t with Backend_analytic.mc_bias_mvins = t.Backend_analytic.mc_bias_mvins + 1 }
          | Isa.Preload _ ->
              c := { t with Backend_analytic.mc_preloads = t.Backend_analytic.mc_preloads + 1 }
          | Isa.Compute_preloaded _ | Isa.Compute_accumulated _ ->
              c := { t with Backend_analytic.mc_computes = t.Backend_analytic.mc_computes + 1 }
          | Isa.Mvout _ ->
              c := { t with Backend_analytic.mc_mvouts = t.Backend_analytic.mc_mvouts + 1 }
          | _ -> ())
      | _ -> ())
    ops;
  !c

let test_command_counts () =
  let p = Soc_config.default_core.Soc_config.accel in
  let cpu = Soc_config.default_core.Soc_config.cpu in
  let checked = ref 0 in
  List.iter
    (fun name ->
      let plans = Lower.plan p ~cpu ~mode:accel_mode (model ~scale:8 name) in
      List.iter
        (fun (lp : Lower.layer_plan) ->
          match lp.Lower.lp_kernel with
          | Lower.K_matmul { shape = ms; _ } ->
              let predicted = Backend_analytic.matmul_command_counts p ms in
              let ops =
                Kernels.ops
                  (Kernels.matmul_steps p
                     ?bias:
                       (if ms.Lower.ms_bias = `None then None
                        else Some 0x10_000)
                     ~a:0x20_000 ~b:0x40_000 ~out:0x60_000 ms)
              in
              let emitted = count_stream ops in
              if predicted <> emitted then
                Alcotest.failf
                  "%s/%s: predicted \
                   (cfg=%d bias=%d a=%d b=%d pre=%d comp=%d out=%d) vs \
                   emitted (cfg=%d bias=%d a=%d b=%d pre=%d comp=%d out=%d)"
                  name lp.Lower.lp_name predicted.Backend_analytic.mc_configs
                  predicted.Backend_analytic.mc_bias_mvins
                  predicted.Backend_analytic.mc_a_mvins
                  predicted.Backend_analytic.mc_b_mvins
                  predicted.Backend_analytic.mc_preloads
                  predicted.Backend_analytic.mc_computes
                  predicted.Backend_analytic.mc_mvouts
                  emitted.Backend_analytic.mc_configs
                  emitted.Backend_analytic.mc_bias_mvins
                  emitted.Backend_analytic.mc_a_mvins
                  emitted.Backend_analytic.mc_b_mvins
                  emitted.Backend_analytic.mc_preloads
                  emitted.Backend_analytic.mc_computes
                  emitted.Backend_analytic.mc_mvouts;
              incr checked
          | _ -> ())
        plans)
    [ "squeezenet1.1"; "mobilenetv2"; "bert-base-seq128" ];
  Alcotest.(check bool)
    "covered a meaningful number of matmul shapes" true (!checked > 20)

let suite =
  [
    Alcotest.test_case "registry: names and round-trip" `Quick test_registry;
    Alcotest.test_case "request: job/core shape" `Quick test_request_shape;
    Alcotest.test_case "cycle backend: byte-identical to seed" `Slow
      test_cycle_byte_identity;
    Alcotest.test_case "conformance: identical layer walks" `Slow
      test_conformance_layers;
    Alcotest.test_case "conformance: watchdog + Degrade parity" `Slow
      test_watchdog_degrade_parity;
    Alcotest.test_case "conformance: watchdog + Abort parity" `Slow
      test_watchdog_abort_parity;
    Alcotest.test_case "analytic: within 15% on scaled networks" `Slow
      test_analytic_accuracy;
    Alcotest.test_case "analytic: command counts match emitted streams" `Quick
      test_command_counts;
  ]
