(* Observability: histogram percentile summaries, span nesting and error
   handling, and the Chrome trace / report exporter (structure,
   determinism, timing neutrality, and outputs pinned against the
   retaining exporter it replaced). *)

open Gem_sim
module Stats = Gem_util.Stats
module J = Gem_util.Jsonx
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Persist = Gem_persist.Persist

(* --- Stats.Histogram summaries -------------------------------------------- *)

let test_histogram_empty () =
  let h = Stats.Histogram.create ~buckets:8 ~range:64. in
  let s = Stats.Histogram.summary h in
  Alcotest.(check bool) "p50 nan" true (Float.is_nan s.Stats.Histogram.p50);
  Alcotest.(check bool) "p95 nan" true (Float.is_nan s.Stats.Histogram.p95);
  Alcotest.(check bool) "p99 nan" true (Float.is_nan s.Stats.Histogram.p99);
  Alcotest.(check bool) "max nan" true (Float.is_nan s.Stats.Histogram.max)

let test_histogram_single_bucket () =
  let h = Stats.Histogram.create ~buckets:8 ~range:64. in
  (* All samples land in bucket 0 (width 8); every percentile is its
     midpoint and max is the exact raw value. *)
  List.iter (Stats.Histogram.add h) [ 1.; 2.; 3. ];
  let s = Stats.Histogram.summary h in
  Alcotest.(check (float 1e-9)) "p50 midpoint" 4. s.Stats.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p95 midpoint" 4. s.Stats.Histogram.p95;
  Alcotest.(check (float 1e-9)) "p99 midpoint" 4. s.Stats.Histogram.p99;
  Alcotest.(check (float 1e-9)) "max exact" 3. s.Stats.Histogram.max

let test_histogram_clamped () =
  let h = Stats.Histogram.create ~buckets:4 ~range:40. in
  (* Nine samples in the first bucket, one far beyond the range: the
     outlier clamps into the last bucket but the recorded max stays
     exact. *)
  for _ = 1 to 9 do
    Stats.Histogram.add h 5.
  done;
  Stats.Histogram.add h 1000.;
  let s = Stats.Histogram.summary h in
  Alcotest.(check (float 1e-9)) "p50 in first bucket" 5. s.Stats.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p99 clamped to last bucket midpoint" 35.
    s.Stats.Histogram.p99;
  Alcotest.(check (float 1e-9)) "max exact beyond range" 1000.
    s.Stats.Histogram.max;
  Alcotest.(check int) "count" 10 (Stats.Histogram.count h)

(* --- span events ------------------------------------------------------------- *)

let span_open ~component ~time ~name ~cat =
  Engine.Span_open { component; time; name; cat; args = [] }

let span_close ~component ~time ~name =
  Engine.Span_close { component; time; name }

(* The recorder keeps no closed span: tests collect them through an
   observer. The records are the recorder's own, so a collected span's end
   stamp fills in when it closes. [spans ()] lists them in opening order,
   so span [i] is at index [i]. *)
let collecting () =
  let opened = ref [] in
  let r =
    Span.create
      { Span.on_open = (fun s -> opened := s :: !opened); on_close = ignore }
  in
  (r, fun () -> List.rev !opened)

(* --- span nesting and error handling ---------------------------------------- *)

let test_span_nesting () =
  let r, spans = collecting () in
  let ev = Span.on_event r in
  ev (span_open ~component:"core0/host" ~time:0 ~name:"net" ~cat:"network");
  ev (span_open ~component:"core0/host" ~time:10 ~name:"l1" ~cat:"layer");
  ev (span_open ~component:"core0/mesh" ~time:20 ~name:"mm" ~cat:"kernel");
  ev (span_close ~component:"core0/mesh" ~time:30 ~name:"mm");
  ev (span_close ~component:"core0/host" ~time:40 ~name:"l1");
  ev (span_close ~component:"core0/host" ~time:50 ~name:"net");
  Alcotest.(check int) "three spans" 3 (Span.count r);
  let net, l1, mm =
    match spans () with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  Alcotest.(check int) "network is root" (-1) net.Span.parent;
  Alcotest.(check int) "layer under network" net.Span.id l1.Span.parent;
  Alcotest.(check int) "kernel under layer" l1.Span.id mm.Span.parent;
  Alcotest.(check int) "kernel t1" 30 mm.Span.t1;
  Alcotest.(check int) "all closed" 0 (Span.open_count r)

let test_span_orphan_and_forced () =
  let r, spans = collecting () in
  let ev = Span.on_event r in
  (* A close that matches nothing is an orphan. *)
  ev (span_close ~component:"core0/host" ~time:5 ~name:"ghost");
  Alcotest.(check int) "orphan counted" 1 (Span.orphan_closes r);
  (* A close that skips an inner open force-closes it at the closer's
     stamp. *)
  ev (span_open ~component:"core0/host" ~time:10 ~name:"outer" ~cat:"layer");
  ev (span_open ~component:"core0/host" ~time:20 ~name:"inner" ~cat:"kernel");
  ev (span_close ~component:"core0/host" ~time:30 ~name:"outer");
  Alcotest.(check int) "forced close counted" 1 (Span.forced_closes r);
  let inner = List.nth (spans ()) 1 in
  Alcotest.(check int) "inner forced at closer stamp" 30 inner.Span.t1;
  (* finalize closes whatever is still open, at the horizon. *)
  ev (span_open ~component:"core0/host" ~time:40 ~name:"dangling" ~cat:"layer");
  Span.finalize r ~horizon:99;
  Alcotest.(check int) "nothing open after finalize" 0 (Span.open_count r);
  Alcotest.(check int) "finalize forced it" 2 (Span.forced_closes r);
  Alcotest.(check int) "dangling closed at horizon" 99
    (List.nth (spans ()) 2).Span.t1

let test_span_scopes () =
  (* Interleaved cores keep independent stacks; shared components attach
     to the scope that opened a span most recently. *)
  let r, spans = collecting () in
  let ev = Span.on_event r in
  ev (span_open ~component:"core0/host" ~time:0 ~name:"l0" ~cat:"layer");
  ev (span_open ~component:"core1/host" ~time:0 ~name:"l1" ~cat:"layer");
  ev (span_open ~component:"core1/mesh" ~time:5 ~name:"k1" ~cat:"kernel");
  ev (span_open ~component:"core0/mesh" ~time:6 ~name:"k0" ~cat:"kernel");
  ev (span_close ~component:"core0/mesh" ~time:9 ~name:"k0");
  ev (span_close ~component:"core1/mesh" ~time:9 ~name:"k1");
  ev (span_close ~component:"core0/host" ~time:10 ~name:"l0");
  ev (span_close ~component:"core1/host" ~time:10 ~name:"l1");
  let by_name n = List.find (fun s -> s.Span.name = n) (spans ()) in
  Alcotest.(check int) "core0 kernel under core0 layer" (by_name "l0").Span.id
    (by_name "k0").Span.parent;
  Alcotest.(check int) "core1 kernel under core1 layer" (by_name "l1").Span.id
    (by_name "k1").Span.parent;
  Alcotest.(check int) "no forced closes" 0 (Span.forced_closes r)

(* An observer sees every span as it opens and closes, and the recorder
   keeps none of them once closed. *)
let test_span_observer () =
  let events =
    [
      span_open ~component:"core0/host" ~time:0 ~name:"net" ~cat:"network";
      span_open ~component:"core0/host" ~time:10 ~name:"l1" ~cat:"layer";
      span_open ~component:"core0/mesh" ~time:20 ~name:"mm" ~cat:"kernel";
      span_close ~component:"core0/host" ~time:40 ~name:"l1";
      span_open ~component:"core0/host" ~time:45 ~name:"l2" ~cat:"layer";
    ]
  in
  let log = ref [] in
  let note tag (s : Span.span) = log := (tag, s.Span.id, s.Span.t1) :: !log in
  let observed = Span.create { Span.on_open = note "open"; on_close = note "close" } in
  let collected, spans = collecting () in
  List.iter
    (fun ev ->
      Span.on_event observed ev;
      Span.on_event collected ev)
    events;
  Alcotest.(check int) "two spans still open" 2 (Span.open_count observed);
  Span.finalize observed ~horizon:99;
  Span.finalize collected ~horizon:99;
  Alcotest.(check (list (triple string int int)))
    "opens carry no end stamp; closes innermost first"
    [
      ("open", 0, -1);
      ("open", 1, -1);
      ("open", 2, -1);
      ("close", 2, 40);
      ("close", 1, 40);
      ("open", 3, -1);
      ("close", 3, 99);
      ("close", 0, 99);
    ]
    (List.rev !log);
  Alcotest.(check int) "same span count" (List.length (spans ()))
    (Span.count observed);
  Alcotest.(check int) "same forced closes" (Span.forced_closes collected)
    (Span.forced_closes observed);
  Alcotest.(check int) "nothing kept after finalize" 0
    (Span.open_count observed)

(* finalize force-closes scopes in sorted order whatever order they were
   opened in, so streamed force-closes are deterministic. *)
let test_span_finalize_sorted () =
  let closes scopes =
    let log = ref [] in
    let r =
      Span.create
        { Span.on_open = ignore; on_close = (fun s -> log := s.Span.name :: !log) }
    in
    List.iter
      (fun scope ->
        Span.on_event r
          (span_open ~component:(scope ^ "/host") ~time:0 ~name:(scope ^ ".l")
             ~cat:"layer");
        Span.on_event r
          (span_open ~component:(scope ^ "/mesh") ~time:1 ~name:(scope ^ ".k")
             ~cat:"kernel"))
      scopes;
    Span.finalize r ~horizon:5;
    Alcotest.(check int) "all forced" (2 * List.length scopes)
      (Span.forced_closes r);
    List.rev !log
  in
  let expected =
    [ "core0.k"; "core0.l"; "core1.k"; "core1.l"; "core2.k"; "core2.l" ]
  in
  Alcotest.(check (list string)) "opened in order" expected
    (closes [ "core0"; "core1"; "core2" ]);
  Alcotest.(check (list string)) "opened in reverse" expected
    (closes [ "core2"; "core1"; "core0" ]);
  Alcotest.(check (list string)) "opened shuffled" expected
    (closes [ "core1"; "core2"; "core0" ])

(* --- export: chrome structure, hierarchy, determinism, neutrality ----------- *)

let small_model =
  lazy
    (Gem_dnn.Model_zoo.scale_model ~factor:32 Gem_dnn.Model_zoo.mobilenetv2)

(* A collector keeping its Chrome trace in memory, plus a span list
   collected from the same engine. *)
let traced_run () =
  let soc = Soc.create Soc_config.default in
  let c = Export.attach (Soc.engine soc) in
  let spans, collected = collecting () in
  Engine.add_sink (Soc.engine soc) (Span.on_event spans);
  let r =
    Runtime.run soc ~core:0 (Lazy.force small_model)
      ~mode:(Runtime.Accel { im2col_on_accel = true })
  in
  Export.finalize c;
  Span.finalize spans ~horizon:(Engine.now (Soc.engine soc));
  (c, collected (), r)

let records text =
  match J.of_string text with
  | Ok j -> Option.get (J.to_list j)
  | Error e -> Alcotest.failf "trace does not parse: %s" e

let with_ph ph = List.filter (fun ev -> J.member "ph" ev = Some (J.String ph))

let test_chrome_structure () =
  let c, _, _ = traced_run () in
  let events = records (Export.chrome_string c) in
  let tracks =
    List.filter
      (fun ev -> J.member "name" ev = Some (J.String "thread_name"))
      (with_ph "M" events)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 4 component tracks (got %d)" (List.length tracks))
    true
    (List.length tracks >= 4);
  let counters =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> Option.bind (J.member "name" ev) J.to_str)
         (with_ph "C" events))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 2 counter tracks (got %d)" (List.length counters))
    true
    (List.length counters >= 2);
  Alcotest.(check bool) "has sync slices" true (with_ph "X" events <> []);
  Alcotest.(check bool) "has async spans" true (with_ph "b" events <> []);
  Alcotest.(check int) "async opens and closes pair up"
    (List.length (with_ph "b" events))
    (List.length (with_ph "e" events))

let test_span_hierarchy_end_to_end () =
  let c, spans, _ = traced_run () in
  let r = Export.recorder c in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  (* Walk one command span up to the root: command -> kernel -> layer ->
     network. *)
  let get id = Hashtbl.find by_id id in
  let cat_of id = (get id).Span.cat in
  let s = List.find (fun s -> s.Span.cat = "command") spans in
  let k = s.Span.parent in
  Alcotest.(check string) "command under kernel" "kernel" (cat_of k);
  let l = (get k).Span.parent in
  Alcotest.(check string) "kernel under layer" "layer" (cat_of l);
  let n = (get l).Span.parent in
  Alcotest.(check string) "layer under network" "network" (cat_of n);
  Alcotest.(check int) "network is root" (-1) (get n).Span.parent;
  (* Every span carries an end stamp after finalize. *)
  List.iter
    (fun s ->
      if s.Span.t1 < s.Span.t0 then
        Alcotest.failf "span %s [%s] has no end stamp" s.Span.name s.Span.cat)
    spans;
  Alcotest.(check int) "collector saw every span" (List.length spans)
    (Span.count r);
  Alcotest.(check int) "clean run forced no closes" 0 (Span.forced_closes r);
  Alcotest.(check int) "clean run orphaned no closes" 0 (Span.orphan_closes r)

let test_chrome_deterministic () =
  let c1, _, _ = traced_run () in
  let c2, _, _ = traced_run () in
  Alcotest.(check bool) "byte-identical traces" true
    (String.equal (Export.chrome_string c1) (Export.chrome_string c2))

let test_collector_timing_neutral () =
  let quiet =
    let soc = Soc.create Soc_config.default in
    let r =
      Runtime.run soc ~core:0 (Lazy.force small_model)
        ~mode:(Runtime.Accel { im2col_on_accel = true })
    in
    r.Runtime.r_total_cycles
  in
  let _, _, r = traced_run () in
  Alcotest.(check int) "collector does not move the clock" quiet
    r.Runtime.r_total_cycles

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_renders () =
  let c, _, _ = traced_run () in
  let report = Export.report c in
  Alcotest.(check bool) "has layer profile" true
    (contains ~sub:"Layer profile" report);
  Alcotest.(check bool) "has queue latency table" true
    (contains ~sub:"Queue latency" report);
  Alcotest.(check bool) "mentions a real layer" true
    (contains ~sub:"conv1" report)

(* No sink drops events, so the trace carries no drop marker and the
   engine reports none. *)
let test_no_dropped_events_marker () =
  let soc = Soc.create Soc_config.default in
  let e = Soc.engine soc in
  let c = Export.attach e in
  ignore
    (Runtime.run soc ~core:0 (Lazy.force small_model)
       ~mode:(Runtime.Accel { im2col_on_accel = true }));
  Export.finalize c;
  Alcotest.(check int) "engine drops nothing" 0 (Engine.dropped_events e);
  Alcotest.(check bool) "no marker in the trace" false
    (contains ~sub:"dropped_events" (Export.chrome_string c));
  Alcotest.(check bool) "no drop note in report" false
    (contains ~sub:"dropped" (Export.report c))

let test_streaming_valid_and_paired () =
  let c, _, _ = traced_run () in
  let events = records (Export.chrome_string c) in
  Alcotest.(check int) "every record counted" (List.length events)
    (Export.events_written c);
  Alcotest.(check bool) "has track metadata" true (with_ph "M" events <> []);
  Alcotest.(check bool) "has sync slices" true (with_ph "X" events <> []);
  Alcotest.(check int) "async opens and closes pair up"
    (List.length (with_ph "b" events))
    (List.length (with_ph "e" events));
  Alcotest.(check int) "clean run: no orphan closes" 0
    (Span.orphan_closes (Export.recorder c));
  Alcotest.(check int) "clean run: no forced closes" 0
    (Span.forced_closes (Export.recorder c))

let test_streaming_finish_idempotent () =
  let e = Engine.create () in
  let c = Export.attach e in
  Engine.emit e
    (span_open ~component:"core0/host" ~time:1 ~name:"open" ~cat:"layer");
  Export.finalize c;
  let once = Export.chrome_string c in
  (* The dangling span was force-closed at the horizon. *)
  Alcotest.(check int) "forced at finish" 1
    (Span.forced_closes (Export.recorder c));
  Export.finalize c;
  Engine.emit e
    (span_open ~component:"core0/host" ~time:2 ~name:"late" ~cat:"layer");
  Alcotest.(check string) "finish twice, events after: no change" once
    (Export.chrome_string c);
  ignore (records once)

(* --- outputs pinned against the retaining exporter -------------------------

   The values below were computed by the exporter this one replaced, which
   kept every span and replayed them at the end. The streaming writer must
   write the same multiset of records, in a different order, and the
   report fold must render the same text. *)

(* [run --model NAME --scale SCALE --cores N] with the default instance,
   observed as the CLI observes it. *)
let observed_run ?(chrome = `Off) ?(cores = 1) ?inject ?(policy = Runtime.Abort)
    name ~scale =
  let model =
    Gem_dnn.Model_zoo.scale_model ~factor:scale
      (Option.get (Gem_dnn.Model_zoo.find name))
  in
  let c = ref None in
  ignore
    (Persist.run
       ~attach:(fun s -> c := Some (Export.attach ~chrome (Soc.engine s)))
       {
         Persist.default with
         config = Gem_serve.Serve.config_for ~cores Gemmini.Params.default;
         jobs = Array.make cores (model, Runtime.Accel { im2col_on_accel = true });
         policy;
         inject;
       });
  let c = Option.get !c in
  Export.finalize c;
  c

let check_report label want c =
  Alcotest.(check string) label want
    (Digest.to_hex (Digest.string (Export.report c)))

let test_report_pinned_1core () =
  check_report "squeezenet1.1/8" "c8b1a522653090a5ef7659d32fc7f693"
    (observed_run "squeezenet1.1" ~scale:8)

let test_report_pinned_2core () =
  check_report "squeezenet1.1/8 on 2 cores" "45bf79d366e4fc90b1ea7f80750f20b5"
    (observed_run "squeezenet1.1" ~scale:8 ~cores:2)

let test_report_pinned_degraded () =
  let degraded =
    observed_run "squeezenet1.1" ~scale:8 ~inject:(3, 0.01)
      ~policy:Runtime.Degrade
  in
  Alcotest.(check int) "degraded run forces closes" 58
    (Span.forced_closes (Export.recorder degraded));
  check_report "squeezenet1.1/8 degraded under injection"
    "4b27f29eb6d2807815133d93d9a73774" degraded;
  Alcotest.(check int) "no Chrome record encoded" 0
    (Export.events_written degraded)

(* Record lines without the array brackets and separators, sorted:
   (count, bytes of the whole file, digest of the sorted lines). *)
let sorted_records text =
  let lines =
    List.filter_map
      (fun l ->
        match l with
        | "[" | "]" | "" -> None
        | l when String.ends_with ~suffix:"," l ->
            Some (String.sub l 0 (String.length l - 1))
        | l -> Some l)
      (String.split_on_char '\n' text)
  in
  let b = Buffer.create (String.length text) in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (List.sort compare lines);
  (List.length lines, String.length text, Digest.to_hex (Digest.string (Buffer.contents b)))

let check_records label want c =
  Alcotest.(check (triple int int string)) label want
    (sorted_records (Export.chrome_string c))

let test_chrome_pinned_mobilenet () =
  check_records "mobilenet/32"
    (119_347, 14_024_689, "0df8c3126f44d71efdb72a2f90815ecb")
    (observed_run ~chrome:`Memory "mobilenet" ~scale:32)

let test_chrome_pinned_2core () =
  check_records "squeezenet1.1/8 on 2 cores"
    (85_063, 10_148_837, "58b00df25c6639ed5d04b4b4a18ffd53")
    (observed_run ~chrome:`Memory "squeezenet1.1" ~scale:8 ~cores:2)

let suite =
  [
    Alcotest.test_case "histogram: empty summary" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: single bucket" `Quick
      test_histogram_single_bucket;
    Alcotest.test_case "histogram: clamped samples" `Quick
      test_histogram_clamped;
    Alcotest.test_case "span: nesting and parents" `Quick test_span_nesting;
    Alcotest.test_case "span: orphan and forced closes" `Quick
      test_span_orphan_and_forced;
    Alcotest.test_case "span: per-core scopes" `Quick test_span_scopes;
    Alcotest.test_case "span: observer retains nothing" `Quick
      test_span_observer;
    Alcotest.test_case "span: finalize visits scopes sorted" `Quick
      test_span_finalize_sorted;
    Alcotest.test_case "chrome: structure" `Quick test_chrome_structure;
    Alcotest.test_case "chrome: full hierarchy" `Quick
      test_span_hierarchy_end_to_end;
    Alcotest.test_case "chrome: deterministic" `Quick test_chrome_deterministic;
    Alcotest.test_case "collector: timing neutral" `Quick
      test_collector_timing_neutral;
    Alcotest.test_case "report: renders tables" `Quick test_report_renders;
    Alcotest.test_case "chrome: no dropped_events marker" `Quick
      test_no_dropped_events_marker;
    Alcotest.test_case "streaming: valid and paired" `Quick
      test_streaming_valid_and_paired;
    Alcotest.test_case "streaming: finish idempotent" `Quick
      test_streaming_finish_idempotent;
    Alcotest.test_case "report: pinned squeezenet1.1/8" `Quick
      test_report_pinned_1core;
    Alcotest.test_case "report: pinned squeezenet1.1/8 on 2 cores" `Quick
      test_report_pinned_2core;
    Alcotest.test_case "report: pinned degraded run" `Quick
      test_report_pinned_degraded;
    Alcotest.test_case "chrome: pinned mobilenet/32 records" `Quick
      test_chrome_pinned_mobilenet;
    Alcotest.test_case "chrome: pinned squeezenet1.1/8 on 2 cores records"
      `Quick test_chrome_pinned_2core;
  ]
