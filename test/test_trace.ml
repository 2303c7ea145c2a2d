(* Observability: histogram percentile summaries, span nesting and error
   handling, and the Chrome trace / report exporters (structure,
   determinism, timing neutrality, and batch/streaming agreement). *)

open Gem_sim
module Stats = Gem_util.Stats
module J = Gem_util.Jsonx
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime

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

(* --- span nesting and error handling ---------------------------------------- *)

let test_span_nesting () =
  let r = Span.create () in
  let ev = Span.on_event r in
  ev (span_open ~component:"core0/host" ~time:0 ~name:"net" ~cat:"network");
  ev (span_open ~component:"core0/host" ~time:10 ~name:"l1" ~cat:"layer");
  ev (span_open ~component:"core0/mesh" ~time:20 ~name:"mm" ~cat:"kernel");
  ev (span_close ~component:"core0/mesh" ~time:30 ~name:"mm");
  ev (span_close ~component:"core0/host" ~time:40 ~name:"l1");
  ev (span_close ~component:"core0/host" ~time:50 ~name:"net");
  Alcotest.(check int) "three spans" 3 (Span.count r);
  let net = Span.get r 0 and l1 = Span.get r 1 and mm = Span.get r 2 in
  Alcotest.(check int) "network is root" (-1) net.Span.parent;
  Alcotest.(check int) "layer under network" net.Span.id l1.Span.parent;
  Alcotest.(check int) "kernel under layer" l1.Span.id mm.Span.parent;
  Alcotest.(check int) "kernel t1" 30 mm.Span.t1;
  Alcotest.(check int) "all closed" 0 (Span.open_count r)

let test_span_orphan_and_forced () =
  let r = Span.create () in
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
  let inner = Span.get r 1 in
  Alcotest.(check int) "inner forced at closer stamp" 30 inner.Span.t1;
  (* finalize closes whatever is still open, at the horizon. *)
  ev (span_open ~component:"core0/host" ~time:40 ~name:"dangling" ~cat:"layer");
  Span.finalize r ~horizon:99;
  Alcotest.(check int) "nothing open after finalize" 0 (Span.open_count r);
  Alcotest.(check int) "finalize forced it" 2 (Span.forced_closes r);
  Alcotest.(check int) "dangling closed at horizon" 99 (Span.get r 2).Span.t1

let test_span_scopes () =
  (* Interleaved cores keep independent stacks; shared components attach
     to the scope that opened a span most recently. *)
  let r = Span.create () in
  let ev = Span.on_event r in
  ev (span_open ~component:"core0/host" ~time:0 ~name:"l0" ~cat:"layer");
  ev (span_open ~component:"core1/host" ~time:0 ~name:"l1" ~cat:"layer");
  ev (span_open ~component:"core1/mesh" ~time:5 ~name:"k1" ~cat:"kernel");
  ev (span_open ~component:"core0/mesh" ~time:6 ~name:"k0" ~cat:"kernel");
  ev (span_close ~component:"core0/mesh" ~time:9 ~name:"k0");
  ev (span_close ~component:"core1/mesh" ~time:9 ~name:"k1");
  ev (span_close ~component:"core0/host" ~time:10 ~name:"l0");
  ev (span_close ~component:"core1/host" ~time:10 ~name:"l1");
  let by_name n =
    let found = ref None in
    Span.iter r (fun s -> if s.Span.name = n then found := Some s);
    Option.get !found
  in
  Alcotest.(check int) "core0 kernel under core0 layer" (by_name "l0").Span.id
    (by_name "k0").Span.parent;
  Alcotest.(check int) "core1 kernel under core1 layer" (by_name "l1").Span.id
    (by_name "k1").Span.parent;
  Alcotest.(check int) "no forced closes" 0 (Span.forced_closes r)

let test_acquire_spans () =
  let e = Engine.create () in
  let r = Span.attach ~acquire_spans:(fun c -> c = "bus") e in
  Engine.emit e
    (Engine.Acquire { component = "bus"; time = 5; start = 7; finish = 12 });
  Engine.emit e
    (Engine.Acquire { component = "dram"; time = 5; start = 7; finish = 12 });
  Alcotest.(check int) "only predicated component" 1 (Span.count r);
  let s = Span.get r 0 in
  Alcotest.(check string) "cat" "acquire" s.Span.cat;
  Alcotest.(check int) "t0 is service start" 7 s.Span.t0;
  Alcotest.(check int) "t1 is finish" 12 s.Span.t1

(* An observing recorder must see the spans a retaining one keeps, as they
   open and close, and keep none of them itself. *)
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
  let observed =
    Span.create ~observer:{ Span.on_open = note "open"; on_close = note "close" }
      ()
  in
  let retained = Span.create () in
  List.iter
    (fun ev ->
      Span.on_event observed ev;
      Span.on_event retained ev)
    events;
  Span.finalize observed ~horizon:99;
  Span.finalize retained ~horizon:99;
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
  Alcotest.(check int) "same span count" (Span.count retained)
    (Span.count observed);
  Alcotest.(check int) "same forced closes" (Span.forced_closes retained)
    (Span.forced_closes observed);
  Alcotest.(check int) "nothing retained" 0
    (List.length (Span.to_list observed));
  Alcotest.check_raises "get refuses every id"
    (Invalid_argument "Span.get: id out of range") (fun () ->
      ignore (Span.get observed 0))

(* finalize force-closes scopes in sorted order whatever order they were
   opened in, so streamed force-closes are deterministic. *)
let test_span_finalize_sorted () =
  let closes scopes =
    let log = ref [] in
    let r =
      Span.create
        ~observer:
          {
            Span.on_open = ignore;
            on_close = (fun s -> log := s.Span.name :: !log);
          }
        ()
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

let traced_run () =
  let soc = Soc.create Soc_config.default in
  let c = Export.attach (Soc.engine soc) in
  let r =
    Runtime.run soc ~core:0 (Lazy.force small_model)
      ~mode:(Runtime.Accel { im2col_on_accel = true })
  in
  Export.finalize c;
  (c, r)

let test_chrome_structure () =
  let c, _ = traced_run () in
  let json =
    match J.of_string (Export.chrome_string c) with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let events = Option.get (J.to_list json) in
  let with_ph ph =
    List.filter
      (fun ev -> J.member "ph" ev = Some (J.String ph))
      events
  in
  let tracks =
    List.filter
      (fun ev -> J.member "name" ev = Some (J.String "thread_name"))
      (with_ph "M")
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 4 component tracks (got %d)" (List.length tracks))
    true
    (List.length tracks >= 4);
  let counters =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> Option.bind (J.member "name" ev) J.to_str)
         (with_ph "C"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 2 counter tracks (got %d)" (List.length counters))
    true
    (List.length counters >= 2);
  Alcotest.(check bool) "has sync slices" true (with_ph "X" <> []);
  Alcotest.(check bool) "has async spans" true (with_ph "b" <> []);
  Alcotest.(check int) "async opens and closes pair up"
    (List.length (with_ph "b"))
    (List.length (with_ph "e"))

let test_span_hierarchy_end_to_end () =
  let c, _ = traced_run () in
  let r = Export.recorder c in
  (* Walk one command span up to the root: command -> kernel -> layer ->
     network. *)
  let cat_of id = (Span.get r id).Span.cat in
  let some_command = ref None in
  Span.iter r (fun s ->
      if s.Span.cat = "command" && !some_command = None then
        some_command := Some s);
  let s = Option.get !some_command in
  let k = s.Span.parent in
  Alcotest.(check string) "command under kernel" "kernel" (cat_of k);
  let l = (Span.get r k).Span.parent in
  Alcotest.(check string) "kernel under layer" "layer" (cat_of l);
  let n = (Span.get r l).Span.parent in
  Alcotest.(check string) "layer under network" "network" (cat_of n);
  Alcotest.(check int) "network is root" (-1) (Span.get r n).Span.parent;
  (* Every span carries an end stamp after finalize. *)
  Span.iter r (fun s ->
      if s.Span.t1 < s.Span.t0 then
        Alcotest.failf "span %s [%s] has no end stamp" s.Span.name s.Span.cat);
  Alcotest.(check int) "clean run forced no closes" 0 (Span.forced_closes r);
  Alcotest.(check int) "clean run orphaned no closes" 0 (Span.orphan_closes r)

let test_chrome_deterministic () =
  let c1, _ = traced_run () in
  let c2, _ = traced_run () in
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
  let _, r = traced_run () in
  Alcotest.(check int) "collector does not move the clock" quiet
    r.Runtime.r_total_cycles

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_renders () =
  let c, _ = traced_run () in
  let report = Export.report c in
  Alcotest.(check bool) "has layer profile" true
    (contains ~sub:"Layer profile" report);
  Alcotest.(check bool) "has queue latency table" true
    (contains ~sub:"Queue latency" report);
  Alcotest.(check bool) "mentions a real layer" true
    (contains ~sub:"conv1" report)

(* No sink drops events, so neither writer emits a drop marker and the
   engine reports none. *)
let test_no_dropped_events_marker () =
  let buf = Buffer.create (1 lsl 16) in
  let soc = Soc.create Soc_config.default in
  let e = Soc.engine soc in
  let c = Export.attach e in
  let s = Export.Streaming.attach e ~out:(Buffer.add_string buf) in
  ignore
    (Runtime.run soc ~core:0 (Lazy.force small_model)
       ~mode:(Runtime.Accel { im2col_on_accel = true }));
  Export.finalize c;
  Export.Streaming.finish s;
  Alcotest.(check int) "engine drops nothing" 0 (Engine.dropped_events e);
  Alcotest.(check bool) "no marker in batch trace" false
    (contains ~sub:"dropped_events" (Export.chrome_string c));
  Alcotest.(check bool) "no marker in streamed trace" false
    (contains ~sub:"dropped_events" (Buffer.contents buf));
  Alcotest.(check bool) "no drop note in report" false
    (contains ~sub:"dropped" (Export.report c))

(* --- streaming chrome writer ------------------------------------------------ *)

let streamed_run () =
  let buf = Buffer.create (1 lsl 16) in
  let soc = Soc.create Soc_config.default in
  let s = Export.Streaming.attach (Soc.engine soc) ~out:(Buffer.add_string buf) in
  let r =
    Runtime.run soc ~core:0 (Lazy.force small_model)
      ~mode:(Runtime.Accel { im2col_on_accel = true })
  in
  Export.Streaming.finish s;
  (Buffer.contents buf, s, r)

let test_streaming_valid_and_paired () =
  let text, s, _ = streamed_run () in
  let json =
    match J.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "streamed trace does not parse: %s" e
  in
  let events = Option.get (J.to_list json) in
  let with_ph ph =
    List.filter (fun ev -> J.member "ph" ev = Some (J.String ph)) events
  in
  Alcotest.(check bool) "events streamed" true
    (Export.Streaming.events_written s > 0);
  Alcotest.(check bool) "has track metadata" true (with_ph "M" <> []);
  Alcotest.(check bool) "has sync slices" true (with_ph "X" <> []);
  Alcotest.(check int) "async opens and closes pair up"
    (List.length (with_ph "b"))
    (List.length (with_ph "e"));
  Alcotest.(check int) "clean run: no orphan closes" 0
    (Export.Streaming.orphan_closes s);
  Alcotest.(check int) "clean run: no forced closes" 0
    (Export.Streaming.forced_closes s)

let test_streaming_deterministic () =
  let a, _, _ = streamed_run () in
  let b, _, _ = streamed_run () in
  Alcotest.(check bool) "byte-identical streamed traces" true
    (String.equal a b)

let test_streaming_timing_neutral () =
  let quiet =
    let soc = Soc.create Soc_config.default in
    let r =
      Runtime.run soc ~core:0 (Lazy.force small_model)
        ~mode:(Runtime.Accel { im2col_on_accel = true })
    in
    r.Runtime.r_total_cycles
  in
  let _, _, r = streamed_run () in
  Alcotest.(check int) "streaming does not move the clock" quiet
    r.Runtime.r_total_cycles

let test_streaming_finish_idempotent () =
  let buf = Buffer.create 1024 in
  let e = Engine.create () in
  let s = Export.Streaming.attach e ~out:(Buffer.add_string buf) in
  Engine.emit e
    (span_open ~component:"core0/host" ~time:1 ~name:"open" ~cat:"layer");
  Export.Streaming.finish s;
  let once = Buffer.contents buf in
  (* The dangling span was force-closed at the horizon. *)
  Alcotest.(check int) "forced at finish" 1 (Export.Streaming.forced_closes s);
  Export.Streaming.finish s;
  Engine.emit e
    (span_open ~component:"core0/host" ~time:2 ~name:"late" ~cat:"layer");
  Alcotest.(check string) "finish twice, events after: no change" once
    (Buffer.contents buf);
  match J.of_string once with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "finished stream does not parse: %s" e

(* Both writers drive the same span stack and encoder, so on one run they
   must emit the same span records on the same tracks. Only the record
   order differs (batch: all metadata first, streaming: at first use),
   plus what the batch writer adds: counter tracks, and a track for every
   registered component even when nothing happened on it. *)
let test_batch_and_streaming_agree () =
  let buf = Buffer.create (1 lsl 16) in
  let soc = Soc.create Soc_config.default in
  let c = Export.attach (Soc.engine soc) in
  let s = Export.Streaming.attach (Soc.engine soc) ~out:(Buffer.add_string buf) in
  ignore
    (Runtime.run soc ~core:0 (Lazy.force small_model)
       ~mode:(Runtime.Accel { im2col_on_accel = true }));
  Export.finalize c;
  Export.Streaming.finish s;
  let records text =
    match J.of_string text with
    | Ok j -> Option.get (J.to_list j)
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let str k ev = Option.bind (J.member k ev) J.to_str in
  (* Span records with (pid, tid) resolved to the track's thread name, as
     a sorted multiset, plus the set of thread names declared. *)
  let spans_and_threads evs =
    let threads = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        if str "name" ev = Some "thread_name" then
          Hashtbl.replace threads
            (J.member "pid" ev, J.member "tid" ev)
            (Option.get (Option.bind (J.member "args" ev) (str "name"))))
      evs;
    let spans =
      List.filter_map
        (fun ev ->
          match str "ph" ev with
          | Some ("X" | "b" | "e") ->
              let track =
                Hashtbl.find threads (J.member "pid" ev, J.member "tid" ev)
              in
              let fields =
                List.filter_map
                  (fun k -> Option.map (fun v -> (k, v)) (J.member k ev))
                  [ "ph"; "name"; "cat"; "ts"; "dur"; "args" ]
              in
              Some (track, J.to_string (J.Obj fields))
          | _ -> None)
        evs
    in
    ( List.sort compare spans,
      List.sort compare (Hashtbl.fold (fun _ n acc -> n :: acc) threads []) )
  in
  let batch_spans, batch_threads =
    spans_and_threads (records (Export.chrome_string c))
  and streamed_spans, streamed_threads =
    spans_and_threads (records (Buffer.contents buf))
  in
  Alcotest.(check bool) "run recorded spans" true (batch_spans <> []);
  Alcotest.(check (list (pair string string)))
    "same span records on the same tracks" batch_spans streamed_spans;
  Alcotest.(check (list string))
    "streamed tracks are exactly the tracks spans landed on"
    (List.sort_uniq compare (List.map fst batch_spans))
    streamed_threads;
  List.iter
    (fun n ->
      if not (List.mem n batch_threads) then
        Alcotest.failf "streamed track %s missing from the batch trace" n)
    streamed_threads

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
    Alcotest.test_case "span: acquire predicate" `Quick test_acquire_spans;
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
    Alcotest.test_case "streaming: deterministic" `Quick
      test_streaming_deterministic;
    Alcotest.test_case "streaming: timing neutral" `Quick
      test_streaming_timing_neutral;
    Alcotest.test_case "streaming: finish idempotent" `Quick
      test_streaming_finish_idempotent;
    Alcotest.test_case "chrome: batch and streaming agree" `Quick
      test_batch_and_streaming_agree;
  ]
