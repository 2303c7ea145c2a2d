(* gem_serve: arrival streams, batching policies, the multi-core serving
   scheduler, and SLO accounting. *)

open Gem_serve

let req id arrival = { Arrival.rq_id = id; rq_arrival = arrival }

(* --- arrival generators ------------------------------------------------- *)

let test_arrival_determinism () =
  let spec = Arrival.Poisson { rate_rps = 100_000. } in
  let a = Arrival.generate spec ~seed:7 ~duration:1_000_000 in
  let b = Arrival.generate spec ~seed:7 ~duration:1_000_000 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Arrival.generate spec ~seed:8 ~duration:1_000_000 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "nonempty" true (Array.length a > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) "ids are positional" i r.Arrival.rq_id;
      Alcotest.(check bool) "inside window" true
        (r.Arrival.rq_arrival >= 0 && r.Arrival.rq_arrival < 1_000_000);
      if i > 0 then
        Alcotest.(check bool) "sorted" true
          (a.(i - 1).Arrival.rq_arrival <= r.Arrival.rq_arrival))
    a;
  (* ~100k req/s over 1 ms is ~100 arrivals; allow generous slack. *)
  let n = Array.length a in
  Alcotest.(check bool) "rate plausible" true (n > 50 && n < 200)

let test_arrival_bursty () =
  let spec = Arrival.Bursty { rate_rps = 100_000.; burst = 4 } in
  let a = Arrival.generate spec ~seed:3 ~duration:1_000_000 in
  Alcotest.(check bool) "nonempty" true (Array.length a > 0);
  Alcotest.(check int) "whole bursts" 0 (Array.length a mod 4);
  (* Members of one burst share an arrival cycle. *)
  Array.iteri
    (fun i r ->
      if i mod 4 <> 0 then
        Alcotest.(check int) "burst member shares cycle"
          a.(i - 1).Arrival.rq_arrival r.Arrival.rq_arrival)
    a

(* A rate so low that the first gap is past any representable cycle:
   the window is over at once, whatever the float-to-int conversion of
   such a gap would give. *)
let test_arrival_tiny_rate () =
  List.iter
    (fun spec ->
      Alcotest.(check int)
        (Arrival.spec_to_string spec ^ " offers nothing")
        0
        (Array.length (Arrival.generate spec ~seed:42 ~duration:1_000_000)))
    [
      Arrival.Poisson { rate_rps = 1e-10 };
      Arrival.Bursty { rate_rps = 1e-10; burst = 4 };
      Arrival.Poisson { rate_rps = 1e-300 };
    ]

let test_arrival_trace () =
  let file = Filename.temp_file "arrivals" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "300\n# comment\n\n100\n999999999\n0\n";
      close_out oc;
      let a =
        Arrival.generate (Arrival.Trace file) ~seed:0 ~duration:1_000_000
      in
      (* Sorted, ids reassigned in time order, out-of-window dropped. *)
      Alcotest.(check (list (pair int int)))
        "parsed, sorted, windowed"
        [ (0, 0); (1, 100); (2, 300) ]
        (Array.to_list
           (Array.map (fun r -> (r.Arrival.rq_id, r.Arrival.rq_arrival)) a)))

let test_arrival_parse () =
  (match Arrival.spec_of_string "poisson:2500" with
  | Ok (Arrival.Poisson { rate_rps }) ->
      Alcotest.(check (float 1e-9)) "rate" 2500. rate_rps
  | _ -> Alcotest.fail "poisson parse");
  (match Arrival.spec_of_string "bursty:1000:8" with
  | Ok (Arrival.Bursty { rate_rps; burst }) ->
      Alcotest.(check (float 1e-9)) "rate" 1000. rate_rps;
      Alcotest.(check int) "burst" 8 burst
  | _ -> Alcotest.fail "bursty parse");
  (match Arrival.spec_of_string "trace:/tmp/a:b.txt" with
  | Ok (Arrival.Trace f) ->
      Alcotest.(check string) "path keeps colons" "/tmp/a:b.txt" f
  | _ -> Alcotest.fail "trace parse");
  Alcotest.(check bool) "bad spec rejected" true
    (Result.is_error (Arrival.spec_of_string "uniform:10"));
  Alcotest.(check bool) "bad rate rejected" true
    (Result.is_error (Arrival.spec_of_string "poisson:-5"))

(* --- batching policies --------------------------------------------------- *)

let test_batch_no_batch () =
  let arrivals = [| req 0 100; req 1 100; req 2 100 |] in
  let k, start = Batch.form Batch.No_batch ~arrivals ~next:0 ~free:0 in
  Alcotest.(check (pair int int)) "single, at arrival" (1, 100) (k, start);
  let k, start = Batch.form Batch.No_batch ~arrivals ~next:1 ~free:500 in
  Alcotest.(check (pair int int)) "single, when free" (1, 500) (k, start)

let test_batch_fixed () =
  let arrivals = [| req 0 0; req 1 10; req 2 20; req 3 1000 |] in
  (* Greedy: everything already waiting at t0 rides, stragglers don't. *)
  let k, start = Batch.form (Batch.Fixed 4) ~arrivals ~next:0 ~free:50 in
  Alcotest.(check (pair int int)) "waiting requests ride" (3, 50) (k, start);
  (* Capacity caps the batch. *)
  let k, _ = Batch.form (Batch.Fixed 2) ~arrivals ~next:0 ~free:50 in
  Alcotest.(check int) "capacity respected" 2 k;
  (* Never waits for future arrivals. *)
  let k, start = Batch.form (Batch.Fixed 4) ~arrivals ~next:3 ~free:50 in
  Alcotest.(check (pair int int)) "head alone" (1, 1000) (k, start)

let test_batch_deadline () =
  let dl = Batch.Deadline { capacity = 3; max_wait = 100 } in
  (* Fills before the deadline: dispatch when the last seat is taken. *)
  let arrivals = [| req 0 0; req 1 50; req 2 80; req 3 500 |] in
  let k, start = Batch.form dl ~arrivals ~next:0 ~free:0 in
  Alcotest.(check (pair int int)) "full batch starts when full" (3, 80)
    (k, start);
  (* Not full: holds until the deadline, no oracle dispatch. *)
  let arrivals = [| req 0 0; req 1 50; req 2 400 |] in
  let k, start = Batch.form dl ~arrivals ~next:0 ~free:0 in
  Alcotest.(check (pair int int)) "partial batch waits out deadline" (2, 100)
    (k, start);
  (* A request past the deadline is never reordered into the batch. *)
  let arrivals = [| req 0 0; req 1 150 |] in
  let k, _ = Batch.form dl ~arrivals ~next:0 ~free:0 in
  Alcotest.(check int) "no reorder past deadline" 1 k;
  (* max_wait = 0 degenerates to greedy Fixed. *)
  let z = Batch.Deadline { capacity = 3; max_wait = 0 } in
  let arrivals = [| req 0 0; req 1 0; req 2 10 |] in
  let k, start = Batch.form z ~arrivals ~next:0 ~free:5 in
  Alcotest.(check (pair int int)) "zero wait is greedy" (2, 5) (k, start)

let test_batch_parse () =
  Alcotest.(check bool) "none" true
    (Batch.policy_of_string "none" = Ok Batch.No_batch);
  Alcotest.(check bool) "fixed" true
    (Batch.policy_of_string "fixed:8" = Ok (Batch.Fixed 8));
  (match Batch.policy_of_string "deadline:4:250" with
  | Ok (Batch.Deadline { capacity; max_wait }) ->
      Alcotest.(check int) "capacity" 4 capacity;
      (* 250 us = 250_000 cycles at 1 GHz *)
      Alcotest.(check int) "wait in cycles" 250_000 max_wait
  | _ -> Alcotest.fail "deadline parse");
  Alcotest.(check bool) "bad policy rejected" true
    (Result.is_error (Batch.policy_of_string "fixed:0"));
  (* A wait past the cycle range would wrap to a 0-cycle deadline. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (Batch.policy_of_string s)))
    [ "deadline:2:inf"; "deadline:2:1e17"; "deadline:2:nan"; "deadline:2:-1" ]

(* --- SLO accounting ------------------------------------------------------ *)

let completion id core ~arrival ~start ~finish =
  { Slo.c_id = id; c_core = core; c_arrival = arrival; c_start = start;
    c_finish = finish }

let test_slo_arithmetic () =
  (* Hand-checked: two completions (1 ms and 3 ms latency), one request
     never finished. *)
  let completions =
    [
      completion 0 0 ~arrival:0 ~start:0 ~finish:1_000_000;
      completion 1 1 ~arrival:500_000 ~start:1_000_000 ~finish:3_500_000;
    ]
  in
  let rp =
    Slo.analyze ~origin:0 ~offered:3 ~cores:2 ~slos_ms:[ 2.0; 5.0 ]
      completions
  in
  Alcotest.(check int) "offered" 3 rp.Slo.rp_offered;
  Alcotest.(check int) "completed" 2 rp.Slo.rp_completed;
  Alcotest.(check int) "horizon is last finish" 3_500_000 rp.Slo.rp_horizon;
  (* 2 requests over 3.5 ms = 571.43 req/s. *)
  Alcotest.(check (float 1e-6)) "throughput" (2. /. 3.5e-3)
    rp.Slo.rp_throughput_rps;
  (* 2 ms SLO: only the 1 ms request, out of 3 OFFERED. *)
  Alcotest.(check (float 1e-9)) "slo 2ms vs offered" (1. /. 3.)
    (List.assoc 2.0 rp.Slo.rp_attainment);
  (* 5 ms SLO: both completions, the queued request still counts missed. *)
  Alcotest.(check (float 1e-9)) "slo 5ms vs offered" (2. /. 3.)
    (List.assoc 5.0 rp.Slo.rp_attainment);
  Alcotest.(check (float 1.0)) "exact max latency" 3_000_000.
    rp.Slo.rp_latency.Gem_util.Stats.Histogram.max;
  Alcotest.(check (list (pair int int))) "per-core counts" [ (0, 1); (1, 1) ]
    rp.Slo.rp_per_core

let test_slo_cycles_range () =
  Alcotest.(check int) "1 ms" 1_000_000 (Slo.cycles_of_ms 1.0);
  Alcotest.(check int) "1e12 ms" (1_000_000 * 1_000_000_000_000)
    (Slo.cycles_of_ms 1e12);
  List.iter
    (fun ms ->
      match Slo.cycles_of_ms ms with
      | c -> Alcotest.failf "%g ms gave %d cycles" ms c
      | exception Invalid_argument _ -> ())
    [ 1e13; 1e300; Float.infinity; Float.nan ]

let test_slo_origin_and_reuse () =
  (* Absolute cycles with a warm-start origin: latency is offset-free,
     horizon is origin-relative. *)
  let completions =
    [ completion 0 0 ~arrival:1_000_100 ~start:1_000_200 ~finish:1_000_600 ]
  in
  let rp =
    Slo.analyze ~origin:1_000_000 ~offered:1 ~cores:1 ~slos_ms:[] completions
  in
  Alcotest.(check int) "origin-relative horizon" 600 rp.Slo.rp_horizon;
  Alcotest.(check (float 0.1)) "offset-free latency" 500.
    rp.Slo.rp_latency.Gem_util.Stats.Histogram.max;
  (* Reusing one histogram across runs must not smear them (the
     Histogram.reset regression, at the serving level). *)
  let hist = Gem_util.Stats.Histogram.create ~buckets:64 ~range:1e7 in
  let big =
    [ completion 0 0 ~arrival:0 ~start:0 ~finish:9_000_000 ]
  in
  let _first =
    Slo.analyze ~hist ~origin:0 ~offered:1 ~cores:1 ~slos_ms:[] big
  in
  let small =
    [ completion 0 0 ~arrival:0 ~start:0 ~finish:1_000 ]
  in
  let second =
    Slo.analyze ~hist ~origin:0 ~offered:1 ~cores:1 ~slos_ms:[] small
  in
  Alcotest.(check (float 0.1)) "second run unsmeared" 1_000.
    second.Slo.rp_latency.Gem_util.Stats.Histogram.max;
  Alcotest.(check bool) "p99 from second run only" true
    (second.Slo.rp_latency.Gem_util.Stats.Histogram.p99 < 1e6)

(* A window in which no request arrives has no attainment to report: not
   a perfect one. *)
let test_slo_empty_window () =
  let rp = Slo.analyze ~origin:0 ~offered:0 ~cores:1 ~slos_ms:[ 5.0 ] [] in
  Alcotest.(check bool) "attainment is NaN" true
    (Float.is_nan (List.assoc 5.0 rp.Slo.rp_attainment));
  let r =
    Serve.run
      {
        Serve.default with
        Serve.sv_model = "mobilenetv2";
        sv_scale = 32;
        sv_arrival = Arrival.Poisson { rate_rps = 1e-10 };
        sv_duration_ms = 1.0;
        sv_slos_ms = [ 5.0 ];
      }
  in
  Alcotest.(check int) "nothing offered" 0 r.Serve.sr_report.Slo.rp_offered;
  let lines = String.split_on_char '\n' (Report.render r) in
  Alcotest.(check bool) "report says n/a" true
    (List.mem "slo 5.00 ms: n/a (no request offered)" lines);
  Alcotest.(check bool) "no attainment line" false
    (List.exists
       (fun l -> String.ends_with ~suffix:"% attained" l)
       lines)

(* --- end-to-end sharding on the cycle-accurate SoC ----------------------- *)

let tiny_scenario =
  {
    Serve.default with
    Serve.sv_model = "mobilenetv2";
    sv_scale = 32;
    sv_arrival = Arrival.Poisson { rate_rps = 4000. };
    sv_batch = Batch.Fixed 2;
    sv_duration_ms = 1.5;
    sv_slos_ms = [ 2.0 ];
  }

let check_conservation (r : Serve.result) =
  let offered = r.Serve.sr_report.Slo.rp_offered in
  Alcotest.(check bool) "stream nonempty" true (offered > 0);
  (* Every request completes exactly once. *)
  Alcotest.(check int) "all complete" offered
    r.Serve.sr_report.Slo.rp_completed;
  let ids = List.map (fun c -> c.Slo.c_id) r.Serve.sr_completions in
  Alcotest.(check (list int)) "each exactly once" (List.init offered Fun.id)
    ids;
  (* Dispatches partition the stream FIFO: concatenated ids are 0..n-1. *)
  let dispatched = List.concat_map snd r.Serve.sr_dispatches in
  Alcotest.(check (list int)) "FIFO partition" (List.init offered Fun.id)
    (List.sort compare dispatched);
  List.iter
    (fun (core, ids) ->
      Alcotest.(check bool) "valid core" true (core >= 0 && core < 2);
      Alcotest.(check bool) "batch nonempty" true (ids <> []))
    r.Serve.sr_dispatches;
  (* Per-core tallies add up. *)
  Alcotest.(check int) "per-core sums" offered
    (List.fold_left ( + ) 0 (List.map snd r.Serve.sr_report.Slo.rp_per_core));
  (* Causality per completion. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "starts after arrival" true
        (c.Slo.c_start >= c.Slo.c_arrival);
      Alcotest.(check bool) "finishes after start" true
        (c.Slo.c_finish > c.Slo.c_start))
    r.Serve.sr_completions

let test_sharding_cycle () =
  let r = Serve.run tiny_scenario in
  check_conservation r;
  (* Under a 4000 req/s open loop both cores must pull weight. *)
  List.iter
    (fun (_, n) -> Alcotest.(check bool) "both cores served" true (n > 0))
    r.Serve.sr_report.Slo.rp_per_core;
  (* Determinism: the full rendered report reproduces byte-for-byte. *)
  let r2 = Serve.run tiny_scenario in
  Alcotest.(check string) "byte-identical report" (Report.render r)
    (Report.render r2)

let test_sharding_analytic () =
  let sv = { tiny_scenario with Serve.sv_backend = Gem_sw.Backend.Analytic } in
  let r = Serve.run sv in
  check_conservation r;
  let r2 = Serve.run sv in
  Alcotest.(check string) "byte-identical report" (Report.render r)
    (Report.render r2)

(* The scheduler's decisions and the completions they produce, pinned:
   they move with any change to when [Sched] forces its decision loop,
   which the program's refill does lazily. *)
let schedule_digest (r : Serve.result) =
  let lines =
    List.map
      (fun (core, ids) ->
        Printf.sprintf "dispatch %d %s" core
          (String.concat "," (List.map string_of_int ids)))
      r.Serve.sr_dispatches
    @ List.map
        (fun c ->
          Printf.sprintf "complete %d core%d %d %d %d" c.Slo.c_id c.Slo.c_core
            c.Slo.c_arrival c.Slo.c_start c.Slo.c_finish)
        r.Serve.sr_completions
  in
  Printf.sprintf "%d/%s" (List.length lines)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_schedule_pinned () =
  let sv = { tiny_scenario with Serve.sv_duration_ms = 4.0 } in
  Alcotest.(check string) "fixed:2" "31/fa35f1c3442359b785cb5ef1a2b00afc"
    (schedule_digest (Serve.run sv));
  Alcotest.(check string) "deadline:3" "28/f384e44ae16ece98fb6ec17d37a1fb51"
    (schedule_digest
       (Serve.run
          {
            sv with
            Serve.sv_batch = Batch.Deadline { capacity = 3; max_wait = 50_000 };
          }))

let test_domains_ignored () =
  (* [?domains] survives only for callers written against the old
     Domain driver; the SoC has one sequential driver, so any value
     leaves the report untouched. *)
  Alcotest.(check string) "report at ~domains:4"
    (Report.render (Serve.run tiny_scenario))
    (Report.render (Serve.run ~domains:4 tiny_scenario))

(* --- streamed request-level chrome traces -------------------------------- *)

module Export = Gem_sim.Export
module J = Gem_util.Jsonx

(* The CLI's serve --trace-out path: a streaming collector attached to the
   SoC engine before the run, finalized after it. *)
let streamed_serve () =
  let collector = ref None in
  let r =
    Serve.run
      ~attach:(fun soc ->
        collector := Some (Export.attach (Gem_soc.Soc.engine soc)))
      tiny_scenario
  in
  let c = Option.get !collector in
  (Export.chrome_string c, Export.recorder c, r)

let test_serve_trace_request_spans () =
  let text, s, r = streamed_serve () in
  let json =
    match J.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "serve trace does not parse: %s" e
  in
  let events = Option.get (J.to_list json) in
  let request_events =
    List.filter_map
      (fun ev ->
        match (J.member "cat" ev, J.member "ph" ev) with
        | Some (J.String "request"), Some (J.String ph)
          when ph = "b" || ph = "e" ->
            Some
              ( Option.get (Option.bind (J.member "pid" ev) J.to_int),
                ph,
                Option.get (Option.bind (J.member "id" ev) J.to_int) )
        | _ -> None)
      events
  in
  let completed = r.Serve.sr_report.Slo.rp_completed in
  Alcotest.(check int) "one open per completed request" completed
    (List.length (List.filter (fun (_, ph, _) -> ph = "b") request_events));
  (* Per core (pid): opens and closes must nest like brackets, pairing by
     async id — a core serves its requests sequentially, so the depth
     never exceeds the open batch and never goes negative. *)
  let pids = List.sort_uniq compare (List.map (fun (p, _, _) -> p) request_events) in
  Alcotest.(check int) "request spans on both core tracks" 2
    (List.length pids);
  List.iter
    (fun pid ->
      let stack = ref [] in
      List.iter
        (fun (p, ph, id) ->
          if p = pid then
            match ph with
            | "b" -> stack := id :: !stack
            | _ -> (
                match !stack with
                | top :: rest ->
                    Alcotest.(check int) "well-nested close" top id;
                    stack := rest
                | [] -> Alcotest.fail "request close with no open"))
        request_events;
      Alcotest.(check (list int)) "no dangling requests" [] !stack)
    pids;
  Alcotest.(check int) "no orphan closes" 0 (Gem_sim.Span.orphan_closes s);
  Alcotest.(check int) "no forced closes" 0 (Gem_sim.Span.forced_closes s)

let test_serve_trace_deterministic () =
  let a, _, ra = streamed_serve () in
  let b, _, _ = streamed_serve () in
  Alcotest.(check bool) "byte-identical streamed serve traces" true
    (String.equal a b);
  (* Streaming is observation only: the report matches an untraced run. *)
  let quiet = Serve.run tiny_scenario in
  Alcotest.(check string) "report unchanged by streaming"
    (Report.render quiet) (Report.render ra)

(* --- engine-held queue latency ---------------------------------------------

   Each engine-owned resource keeps its own queue-latency histogram, so
   serving and sweeps attach no collector. The reference below is the
   collector they used to attach: one float histogram per component, fed
   [start - time] of every Acquire event. On the same run both must give
   the same per-component summaries, bit for bit. *)

module Engine = Gem_sim.Engine
module H = Gem_util.Stats.Histogram
module Soc = Gem_soc.Soc

let reference_sink engine =
  let tbl = Hashtbl.create 16 in
  Engine.add_sink engine (function
    | Engine.Acquire { component; time; start; _ } ->
        let h =
          match Hashtbl.find_opt tbl component with
          | Some h -> h
          | None ->
              let h = H.create ~buckets:64 ~range:4096. in
              Hashtbl.add tbl component h;
              h
        in
        H.add h (float_of_int (start - time))
    | _ -> ());
  tbl

let summary_row (name, n, (s : H.summary)) =
  (name, n, [ s.H.p50; s.H.p95; s.H.p99; s.H.max ])

let reference_rows engine tbl =
  List.filter_map
    (fun (name, _) ->
      Option.map
        (fun h -> summary_row (name, H.count h, H.summary h))
        (Hashtbl.find_opt tbl name))
    (Engine.components engine)

let check_reference what engine tbl =
  let rows = List.map summary_row (Engine.latency engine) in
  Alcotest.(check bool) (what ^ ": engine kept latencies") true (rows <> []);
  Alcotest.(check int)
    (what ^ ": no unregistered component")
    (Hashtbl.length tbl)
    (List.length (reference_rows engine tbl));
  Alcotest.(check (list (triple string int (list (float 0.)))))
    (what ^ ": engine histograms = reference sink")
    (reference_rows engine tbl) rows

(* Runs [sv] with the reference sink attached (after [arm]) and checks
   the engine's histograms against it, and [sr_comp_p95] too unless an
   armed fault aborted the run. Returns the SoC. *)
let check_serve_reference what ?(arm = ignore) ?warm_in sv =
  let captured = ref None in
  let result =
    try
      Some
        (Serve.run ?warm_in
           ~attach:(fun soc ->
             arm soc;
             captured := Some (soc, reference_sink (Soc.engine soc)))
           sv)
    with Gem_sim.Fault.Trap _ -> None
  in
  let soc, tbl = Option.get !captured in
  check_reference what (Soc.engine soc) tbl;
  Option.iter
    (fun (r : Serve.result) ->
      Alcotest.(check (list (pair string (float 0.))))
        (what ^ ": sr_comp_p95 = reference p95")
        (List.map
           (fun (name, _, ps) -> (name, List.nth ps 1))
           (reference_rows (Soc.engine soc) tbl))
        r.Serve.sr_comp_p95)
    result;
  soc

let test_latency_reference_warmup () =
  ignore (check_serve_reference "warmup" tiny_scenario)

let test_latency_reference_warm_restore () =
  let path = Filename.temp_file "gem_serve_warm" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Serve.run ~warm_out:path tiny_scenario);
      ignore (check_serve_reference "warm restore" ~warm_in:path tiny_scenario))

(* A warm file with a valid checksum and matching meta, saved from a SoC
   whose L2 has another size, must be refused with Invalid_argument (the
   CLI's one-line [serve] error and exit 2), not escape as
   Snap.Malformed. *)
let test_warm_state_misfit () =
  let sv = tiny_scenario in
  let cfg = sv.Serve.sv_soc in
  let other =
    Soc.create
      (Gem_soc.Soc_config.with_l2_size (2 * cfg.Gem_soc.Soc_config.l2_size_bytes) cfg)
  in
  let meta =
    [ ("kind", J.String "serve-warm"); ("model", J.String sv.Serve.sv_model);
      ("scale", J.Int sv.Serve.sv_scale); ("cores", J.Int (Serve.cores sv));
      ("mode", J.String (Gem_sw.Runtime.mode_desc sv.Serve.sv_mode));
      ("finish", J.Int 0) ]
  in
  let path = Filename.temp_file "gem_serve_warm" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gem_persist.Persist.save ~path ~meta ~payload:(Soc.snapshot other);
      match Serve.run ~warm_in:path sv with
      | _ -> Alcotest.fail "a warm state from another L2 geometry was accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            ("names the misfit: " ^ msg) true
            (String.starts_with msg
               ~prefix:("Gem_serve: warm state " ^ path ^ " does not fit this SoC: ")))

let test_latency_reference_injected () =
  let soc =
    check_serve_reference "injection armed"
      ~arm:(fun soc -> Soc.arm_injection soc ~seed:7 ~rate:1e-4)
      tiny_scenario
  in
  Alcotest.(check bool) "a fault was injected" true
    (Engine.total_faults (Soc.engine soc) > 0)

(* A cycle-backend sweep point reports the p95 the reference sink sees on
   the same run. *)
let test_latency_reference_dse () =
  let module Point = Gem_dse.Point in
  let p = Point.make ~label:"ref" ~model:"squeezenet1.1" ~scale:8 () in
  let outcome = Gem_dse.Exec.evaluate p in
  let model =
    Gem_dnn.Model_zoo.scale_model ~factor:8
      (Option.get (Gem_dnn.Model_zoo.find "squeezenet1.1"))
  in
  let sink = ref None in
  ignore
    (Gem_persist.Persist.run
       ~attach:(fun soc -> sink := Some (soc, reference_sink (Soc.engine soc)))
       { Gem_persist.Persist.default with
         config = p.Point.soc; jobs = [| (model, p.Point.mode) |] });
  let soc, tbl = Option.get !sink in
  Alcotest.(check (list (pair string (float 0.))))
    "comp_p95_lat = reference p95"
    (List.map
       (fun (name, _, ps) -> (name, List.nth ps 1))
       (reference_rows (Soc.engine soc) tbl))
    outcome.Gem_dse.Outcome.comp_p95_lat

(* Serving and sweeps run quiet: nothing is attached unless the caller
   asks, so no event record is ever built. *)
let test_serve_runs_quiet () =
  let captured = ref None in
  ignore (Serve.run ~attach:(fun soc -> captured := Some soc) tiny_scenario);
  Alcotest.(check bool) "serve engine not live" false
    (Engine.live (Soc.engine (Option.get !captured)))

let test_dse_runs_quiet () =
  let module P = Gem_obs.Profile in
  P.reset ();
  P.enable ();
  let phases =
    Fun.protect
      ~finally:(fun () ->
        P.disable ();
        P.reset ())
      (fun () ->
        ignore
          (Gem_dse.Exec.evaluate
             (Gem_dse.Point.make ~model:"squeezenet1.1" ~scale:8 ()));
        P.phases ())
  in
  let calls name =
    List.fold_left
      (fun acc ph -> if ph.P.ph_name = name then acc + ph.P.ph_calls else acc)
      0 phases
  in
  Alcotest.(check bool) "the point acquired resources" true
    (calls P.acquire > 0);
  Alcotest.(check int) "no event emitted: engine not live" 0 (calls P.event)

(* A sink attached through [~attach] is observation only: every reported
   figure equals the quiet run's. *)
let test_sink_attached_equals_quiet () =
  let quiet = Serve.run tiny_scenario in
  let observed =
    Serve.run
      ~attach:(fun soc -> Engine.add_sink (Soc.engine soc) ignore)
      tiny_scenario
  in
  let same what a b = Alcotest.(check bool) what true (compare a b = 0) in
  same "sr_report" quiet.Serve.sr_report observed.Serve.sr_report;
  same "sr_completions" quiet.Serve.sr_completions
    observed.Serve.sr_completions;
  same "sr_comp_util" quiet.Serve.sr_comp_util observed.Serve.sr_comp_util;
  same "sr_comp_wait" quiet.Serve.sr_comp_wait observed.Serve.sr_comp_wait;
  same "sr_comp_p95" quiet.Serve.sr_comp_p95 observed.Serve.sr_comp_p95

let suite =
  [
    Alcotest.test_case "arrival determinism" `Quick test_arrival_determinism;
    Alcotest.test_case "arrival bursty" `Quick test_arrival_bursty;
    Alcotest.test_case "arrival tiny rate ends at once" `Quick
      test_arrival_tiny_rate;
    Alcotest.test_case "arrival trace file" `Quick test_arrival_trace;
    Alcotest.test_case "arrival parsing" `Quick test_arrival_parse;
    Alcotest.test_case "batch none" `Quick test_batch_no_batch;
    Alcotest.test_case "batch fixed" `Quick test_batch_fixed;
    Alcotest.test_case "batch deadline" `Quick test_batch_deadline;
    Alcotest.test_case "batch parsing" `Quick test_batch_parse;
    Alcotest.test_case "slo arithmetic" `Quick test_slo_arithmetic;
    Alcotest.test_case "slo ms out of cycle range" `Quick
      test_slo_cycles_range;
    Alcotest.test_case "slo origin + histogram reuse" `Quick
      test_slo_origin_and_reuse;
    Alcotest.test_case "slo of an empty window is n/a" `Quick
      test_slo_empty_window;
    Alcotest.test_case "2-core sharding (cycle)" `Slow test_sharding_cycle;
    Alcotest.test_case "2-core sharding (analytic)" `Quick
      test_sharding_analytic;
    Alcotest.test_case "2-core schedule pinned" `Quick test_schedule_pinned;
    Alcotest.test_case "2-core: ?domains is accepted and ignored" `Quick
      test_domains_ignored;
    Alcotest.test_case "2-core trace: request spans well-nested" `Slow
      test_serve_trace_request_spans;
    Alcotest.test_case "2-core trace: deterministic" `Slow
      test_serve_trace_deterministic;
    Alcotest.test_case "queue latency = reference sink: warmup" `Slow
      test_latency_reference_warmup;
    Alcotest.test_case "queue latency = reference sink: warm restore" `Slow
      test_latency_reference_warm_restore;
    Alcotest.test_case "warm state from another SoC is refused" `Quick
      test_warm_state_misfit;
    Alcotest.test_case "queue latency = reference sink: injection armed" `Slow
      test_latency_reference_injected;
    Alcotest.test_case "queue latency = reference sink: cycle sweep point"
      `Slow test_latency_reference_dse;
    Alcotest.test_case "serve runs quiet" `Slow test_serve_runs_quiet;
    Alcotest.test_case "cycle sweep point runs quiet" `Slow test_dse_runs_quiet;
    Alcotest.test_case "sink-attached serve = quiet serve" `Slow
      test_sink_attached_equals_quiet;
  ]
