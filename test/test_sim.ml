(* gem_sim: resource arbitration edge cases, trace ring-buffer semantics,
   the engine's registry/clock/event stream, and end-to-end determinism of
   a dual-core run. *)

open Gem_sim
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime

(* --- Resource ------------------------------------------------------------- *)

let test_resource_zero_occupancy () =
  let r = Resource.create ~name:"r" in
  Alcotest.(check int) "first acquire" 15 (Resource.acquire r ~now:10 ~occupancy:5);
  Alcotest.(check int) "busy_until" 15 (Resource.busy_until r);
  (* A zero-occupancy request (a probe, a zero-byte burst) must observe its
     slot time without reserving anything: it is not allowed to push
     busy_until forward to its own arrival time. *)
  Alcotest.(check int) "zero-occupancy returns slot" 20
    (Resource.acquire r ~now:20 ~occupancy:0);
  Alcotest.(check int) "busy_until unchanged" 15 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles unchanged" 5 (Resource.busy_cycles r);
  Alcotest.(check int) "but it counted as a request" 2 (Resource.requests r);
  (* An earlier-in-time requester must still queue behind the first
     reservation only, not behind the probe. *)
  Alcotest.(check int) "queues at 15" 18 (Resource.acquire r ~now:12 ~occupancy:3);
  Alcotest.(check int) "waited 3" 3 (Resource.wait_cycles r)

let test_resource_next_free_occupy () =
  let r = Resource.create ~name:"r" in
  Alcotest.(check int) "idle: start at now" 7 (Resource.next_free r ~now:7);
  Alcotest.(check int) "query had no side effects" 0 (Resource.requests r);
  (* Commit a reservation whose duration was computed downstream. *)
  Resource.occupy_until r ~now:7 ~start:7 ~until:19;
  Alcotest.(check int) "busy_until" 19 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles" 12 (Resource.busy_cycles r);
  Alcotest.(check int) "requests" 1 (Resource.requests r);
  (* next_free + occupy_until must agree with what acquire would do. *)
  let start = Resource.next_free r ~now:10 in
  Alcotest.(check int) "queued start" 19 start;
  Resource.occupy_until r ~now:10 ~start ~until:(start + 4);
  Alcotest.(check int) "wait charged" 9 (Resource.wait_cycles r);
  Alcotest.(check int) "busy extended" 23 (Resource.busy_until r);
  (* A commit that ends inside an existing reservation never rewinds. *)
  Resource.occupy_until r ~now:23 ~start:23 ~until:23;
  Alcotest.(check int) "zero-length commit keeps busy_until" 23
    (Resource.busy_until r);
  Alcotest.check_raises "start before now"
    (Invalid_argument "Resource.occupy_until: start before now") (fun () ->
      Resource.occupy_until r ~now:5 ~start:4 ~until:6);
  Alcotest.check_raises "until before start"
    (Invalid_argument "Resource.occupy_until: until before start") (fun () ->
      Resource.occupy_until r ~now:30 ~start:31 ~until:30)

let test_resource_reset () =
  let r = Resource.create ~name:"r" in
  ignore (Resource.acquire r ~now:0 ~occupancy:10);
  ignore (Resource.acquire r ~now:0 ~occupancy:10);
  Resource.reset r;
  Alcotest.(check int) "busy_until" 0 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles" 0 (Resource.busy_cycles r);
  Alcotest.(check int) "wait_cycles" 0 (Resource.wait_cycles r);
  Alcotest.(check int) "requests" 0 (Resource.requests r);
  Alcotest.(check string) "name survives" "r" (Resource.name r)

(* Every request lands in the resource's queue-latency histogram: 64
   buckets of 64 cycles, the last open-ended, with an exact maximum. *)
let test_resource_latency () =
  let module H = Gem_util.Stats.Histogram in
  let r = Resource.create ~name:"r" in
  Alcotest.(check int) "empty" 0 (H.count (Resource.latency r));
  ignore (Resource.acquire r ~now:0 ~occupancy:5000);
  (* waits 0, 63, 64 and 4999 (clamped into the last bucket) *)
  ignore (Resource.acquire r ~now:4937 ~occupancy:0);
  ignore (Resource.acquire r ~now:4936 ~occupancy:0);
  ignore (Resource.acquire r ~now:1 ~occupancy:0);
  let h = Resource.latency r in
  let counts = H.bucket_counts h in
  Alcotest.(check int) "count" 4 (H.count h);
  Alcotest.(check (list int)) "buckets 0, 1 and 63"
    [ 2; 1; 1 ]
    [ counts.(0); counts.(1); counts.(63) ];
  Alcotest.(check (float 0.)) "exact max" 4999. (H.max h);
  Resource.force_state r ~busy_until:0 ~busy_cycles:0 ~requests:0
    ~wait_cycles:0;
  Alcotest.(check int) "force_state keeps it" 4
    (H.count (Resource.latency r));
  Resource.reset r;
  Alcotest.(check int) "reset clears it" 0 (H.count (Resource.latency r))

(* [acquire_run] charges a private stream in one call: it must leave the
   resource exactly as [n] back-to-back [acquire]s do, whether the first
   request queues behind earlier work or not. *)
let resource_state r =
  let module H = Gem_util.Stats.Histogram in
  let h = Resource.latency r in
  ( [ Resource.busy_until r; Resource.busy_cycles r; Resource.wait_cycles r;
      Resource.requests r ],
    (Array.to_list (H.bucket_counts h), H.max h) )

let test_resource_acquire_run () =
  let state = resource_state in
  List.iter
    (fun (label, busy, now, gap, occupancy, n) ->
      let bulk = Resource.create ~name:"bulk" and walk = Resource.create ~name:"walk" in
      List.iter
        (fun r -> ignore (Resource.acquire r ~now:0 ~occupancy:busy))
        [ bulk; walk ];
      let last = Resource.acquire_run bulk ~now ~gap ~occupancy ~n in
      let rec go i arrival =
        let finish = Resource.acquire walk ~now:arrival ~occupancy in
        if i = n then finish else go (i + 1) (finish + gap)
      in
      Alcotest.(check int) (label ^ ": last finish") (go 1 now) last;
      Alcotest.(check (pair (list int) (pair (list int) (float 0.))))
        (label ^ ": busy_until, busy, wait, requests, histogram, max")
        (state walk) (state bulk))
    [
      ("queued first, gap 0", 500, 20, 0, 3, 16);
      ("queued first, gap 2", 90, 10, 2, 4, 9);
      ("idle, gap 5", 10, 40, 5, 1, 7);
      ("occupancy 0", 200, 30, 3, 0, 5);
      ("occupancy 0, gap 0", 200, 300, 0, 0, 4);
      ("n = 1", 100, 0, 7, 6, 1);
    ];
  Alcotest.check_raises "n = 0 is refused"
    (Invalid_argument
       "Resource.acquire_run: negative occupancy or gap, or n < 1")
    (fun () ->
      ignore
        (Resource.acquire_run (Resource.create ~name:"r") ~now:0 ~gap:0
           ~occupancy:1 ~n:0))

(* [acquire_spaced] charges a line run's port slots in one call: whatever
   the earlier load, arrival, spacing and occupancy (0 included), it must
   leave the resource exactly as [n] [acquire]s arriving at
   [now + j*spacing] do. Loads up to 20k cycles and spacings on either
   side of the occupancy make waits that shrink, stay or grow across the
   64-cycle buckets, into the clamped last one; runs of up to 400
   requests cross many buckets either way, as [record_waits] counts one
   bucket at a time. *)
let qcheck_resource_acquire_spaced =
  let gen =
    QCheck2.Gen.(
      let* busy = oneof [ return 0; int_range 0 300; int_range 0 20_000 ] in
      let* now = int_range 0 400 in
      let* spacing = oneof [ return 0; int_range 0 8; int_range 0 200 ] in
      let* occupancy = oneof [ return 0; int_range 0 8; int_range 0 200 ] in
      let* n = oneof [ int_range 1 80; int_range 1 400 ] in
      return (busy, now, spacing, occupancy, n))
  in
  let print (busy, now, spacing, occupancy, n) =
    Printf.sprintf "busy %d, now %d, spacing %d, occupancy %d, n %d" busy now
      spacing occupancy n
  in
  QCheck2.Test.make ~name:"resource: acquire_spaced equals n acquires"
    ~count:1000 ~print gen (fun (busy, now, spacing, occupancy, n) ->
      let spaced = Resource.create ~name:"spaced"
      and walk = Resource.create ~name:"walk" in
      List.iter
        (fun r ->
          ignore (Resource.acquire r ~now:0 ~occupancy:busy);
          ignore (Resource.acquire r ~now:0 ~occupancy:1))
        [ spaced; walk ];
      let last = Resource.acquire_spaced spaced ~now ~spacing ~occupancy ~n in
      let walked = ref 0 in
      for j = 0 to n - 1 do
        walked := Resource.acquire walk ~now:(now + (j * spacing)) ~occupancy
      done;
      last = !walked && resource_state spaced = resource_state walk)

let test_resource_acquire_spaced_refuses () =
  let refused f =
    match f () with
    | (_ : int) -> Alcotest.fail "accepted"
    | exception Invalid_argument _ -> ()
  in
  let r = Resource.create ~name:"r" in
  refused (fun () -> Resource.acquire_spaced r ~now:0 ~spacing:1 ~occupancy:1 ~n:0);
  refused (fun () -> Resource.acquire_spaced r ~now:0 ~spacing:(-1) ~occupancy:1 ~n:2);
  refused (fun () -> Resource.acquire_spaced r ~now:0 ~spacing:1 ~occupancy:(-1) ~n:2);
  Alcotest.(check int) "refused calls leave no request" 0 (Resource.requests r)

(* --- Engine --------------------------------------------------------------- *)

let test_engine_registry () =
  let e = Engine.create () in
  let a = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  let b = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Engine.register_probe e ~kind:Engine.Tlb ~name:"tlb" ~sample:(fun () ->
      { Engine.p_requests = 3; p_busy = 1; p_wait = 2; p_note = "probed" });
  Alcotest.(check string) "first keeps its name" "bus" (Resource.name a);
  Alcotest.(check string) "duplicate is uniquified" "bus#2" (Resource.name b);
  Alcotest.(check (list string)) "registration order"
    [ "bus"; "bus#2"; "tlb" ]
    (List.map fst (Engine.components e));
  ignore (Engine.acquire e b ~now:0 ~occupancy:1);
  Alcotest.(check (list (pair string int)))
    "latency rows: requested owned resources only" [ ("bus#2", 1) ]
    (List.map (fun (name, n, _) -> (name, n)) (Engine.latency e));
  match Engine.stats e with
  | [ _; _; p ] ->
      Alcotest.(check string) "probe name" "tlb" p.Engine.stat_name;
      Alcotest.(check int) "probe requests" 3 p.Engine.stat_requests;
      Alcotest.(check int) "probe busy" 1 p.Engine.stat_busy;
      Alcotest.(check int) "probe wait" 2 p.Engine.stat_wait;
      Alcotest.(check string) "probe note" "probed" p.Engine.stat_note
  | l -> Alcotest.failf "expected 3 stats, got %d" (List.length l)

let test_engine_clock_and_stats () =
  let e = Engine.create () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Alcotest.(check int) "clock starts at zero" 0 (Engine.now e);
  Alcotest.(check int) "acquire times like the resource" 12
    (Engine.acquire e bus ~now:2 ~occupancy:10);
  Alcotest.(check int) "clock is the high-water mark" 12 (Engine.now e);
  let start = Engine.next_free e bus ~now:5 in
  Engine.occupy e bus ~now:5 ~start ~until:(start + 3);
  Alcotest.(check int) "occupy advances the clock" 15 (Engine.now e);
  (match Engine.stats e with
  | [ s ] ->
      Alcotest.(check int) "requests" 2 s.Engine.stat_requests;
      Alcotest.(check int) "busy" 13 s.Engine.stat_busy;
      Alcotest.(check int) "wait" 7 s.Engine.stat_wait
  | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l));
  Engine.observe e 100;
  Alcotest.(check int) "observe moves forward" 100 (Engine.now e);
  Engine.observe e 50;
  Alcotest.(check int) "observe never rewinds" 100 (Engine.now e)

let test_engine_events_and_sinks () =
  let e = Engine.create () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Alcotest.(check bool) "quiet by default" false (Engine.live e);
  ignore (Engine.acquire e bus ~now:0 ~occupancy:4);
  let seen = ref [] in
  Engine.add_sink e (fun ev -> seen := ev :: !seen);
  Alcotest.(check bool) "a sink makes it live" true (Engine.live e);
  Alcotest.(check int) "no events from before the sink" 0 (List.length !seen);
  ignore (Engine.acquire e bus ~now:10 ~occupancy:2);
  Engine.emit e
    (Engine.Transfer { component = "bus"; time = 12; dir = `Read; bytes = 64 });
  (match List.rev !seen with
  | [
   Engine.Acquire { component; start; finish; _ };
   Engine.Transfer { bytes; _ };
  ] ->
      Alcotest.(check string) "acquire component" "bus" component;
      Alcotest.(check int) "acquire start follows first burst" 10 start;
      Alcotest.(check int) "acquire finish" 12 finish;
      Alcotest.(check int) "transfer bytes" 64 bytes
  | _ -> Alcotest.fail "expected [Acquire; Transfer] in emission order");
  Alcotest.(check int) "nothing is dropped" 0 (Engine.dropped_events e);
  Engine.reset e;
  Alcotest.(check int) "reset clears the clock" 0 (Engine.now e);
  ignore (Engine.acquire e bus ~now:0 ~occupancy:1);
  Alcotest.(check int) "sinks survive reset" 3 (List.length !seen);
  match Engine.stats e with
  | [ s ] -> Alcotest.(check int) "reset clears resources" 1 s.Engine.stat_requests
  | _ -> Alcotest.fail "registry survives reset"

(* --- allocation-free quiet hot path ----------------------------------------

   The flattened hot path promises zero per-event heap allocation while no
   observer is attached: Resource.acquire, the engine's quiet acquire
   loop, and the DMA's timing-only transfer walk. Allocation-counter
   deltas pin that down — a regression that boxes a result or rebuilds a
   closure per event shows up as bytes per iteration. *)

(* Words allocated so far, on both heaps: [Gc.minor_words] (the minor
   count inside [Gc.counters] and [Gc.allocated_bytes] under-report the
   words still in the minor arena on OCaml 5.1) plus the major words that
   were not promoted from the minor heap — blocks above [Max_young_wosize]
   go straight to the major heap and are never seen by the minor count. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let measure_alloc f =
  (* Empty the arena first so no collection lands inside the measurement
     window, and calibrate away the tuple and boxed floats the counter
     reads themselves allocate. *)
  Gc.minor ();
  let overhead =
    let a = allocated_words () in
    let b = allocated_words () in
    b -. a
  in
  let before = allocated_words () in
  f ();
  let after = allocated_words () in
  (after -. before -. overhead) *. float_of_int (Sys.word_size / 8)

(* The measure must see what it pins against: a small minor block and a
   block too large for the minor heap, each to the byte. *)
let test_measure_alloc_counts_both_heaps () =
  let sink = ref [||] in
  let word = float_of_int (Sys.word_size / 8) in
  let small = measure_alloc (fun () -> sink := Array.make 3 0) in
  Alcotest.(check (float 0.)) "4-word minor block" (4. *. word) small;
  let large = measure_alloc (fun () -> sink := Array.make 300 0) in
  Alcotest.(check (float 0.)) "301-word major block" (301. *. word) large;
  ignore (Sys.opaque_identity !sink)

let test_alloc_free_resource_acquire () =
  let r = Resource.create ~name:"r" in
  ignore (Resource.acquire r ~now:0 ~occupancy:1);
  let bytes =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          ignore (Resource.acquire r ~now:i ~occupancy:1)
        done)
  in
  Alcotest.(check (float 0.)) "Resource.acquire allocates nothing" 0. bytes;
  (* Queued requests fill every latency bucket, the clamped one too. *)
  let queued =
    measure_alloc (fun () ->
        for _ = 1 to 10_000 do
          ignore (Resource.acquire r ~now:0 ~occupancy:1)
        done)
  in
  Alcotest.(check (float 0.)) "queued acquires allocate nothing" 0. queued

let test_alloc_free_engine_quiet () =
  let e = Engine.create () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  ignore (Engine.acquire e bus ~now:0 ~occupancy:1);
  Alcotest.(check bool) "engine is quiet" false (Engine.live e);
  let bytes =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          ignore (Engine.acquire e bus ~now:i ~occupancy:1)
        done)
  in
  Alcotest.(check (float 0.)) "quiet Engine.acquire allocates nothing" 0.
    bytes

let test_alloc_constant_dma_transfer () =
  (* Timing-only mvin: the per-row segment walk reuses one preallocated
     translation slot and the DMA's cursor fields, and the caller reads
     the result back from those fields, so a transfer allocates nothing
     whatever its row count. *)
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  Gem_vm.Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 22) ~paddr:0x40_0000;
  let ptw =
    Gem_vm.Ptw.create ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let tlb =
    Gem_vm.Hierarchy.create
      {
        Gem_vm.Hierarchy.private_entries = 4;
        shared_entries = 0;
        filter_registers = true;
        private_hit_latency = 2;
        shared_hit_latency = 8;
      }
      ~ptw
  in
  let dma =
    Gemmini.Dma.create Gemmini.Params.default ~port:Gemmini.Dma.null_port ~tlb
  in
  let per_call rows =
    (* Warm the TLB/filters so the measured calls stay on the hit path. *)
    ignore
      (Gemmini.Dma.mvin dma ~now:0 ~vaddr:0 ~stride_bytes:64 ~rows
         ~row_bytes:64);
    let iters = 1_000 in
    let bytes =
      measure_alloc (fun () ->
          for i = 1 to iters do
            ignore
              (Gemmini.Dma.mvin dma ~now:(i * 10_000) ~vaddr:0
                 ~stride_bytes:64 ~rows ~row_bytes:64)
          done)
    in
    bytes /. float_of_int iters
  in
  Alcotest.(check (float 0.)) "1-row transfer allocates nothing" 0.
    (per_call 1);
  Alcotest.(check (float 0.)) "32-row transfer allocates nothing" 0.
    (per_call 32)

(* The same pin on the path [run] actually executes: core 0's DMA of a
   default SoC, whose port walks every row's lines through the shared L2
   port, the cache and DRAM. Transfers stay inside one mapped page so
   translation hits the filter registers; the cold variant drops the L2
   before every transfer, so each line also misses to DRAM. *)
let test_alloc_constant_soc_dma_transfer () =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let dma = Gemmini.Controller.dma (Soc.controller core) in
  let va = Soc.alloc soc core ~bytes:Gem_vm.Page_table.page_size in
  let per_call ?(stride_bytes = 64) ?(row_bytes = 64) ~write ~cold rows =
    let transfer i =
      if cold then Gem_mem.Cache.invalidate_all (Soc.l2 soc);
      if write then
        ignore
          (Gemmini.Dma.mvout_timing_rows dma ~now:(i * 10_000) ~vaddr:va
             ~stride_bytes ~rows ~row_bytes)
      else
        ignore
          (Gemmini.Dma.mvin dma ~now:(i * 10_000) ~vaddr:va ~stride_bytes
             ~rows ~row_bytes)
    in
    (* Warm the TLB/filters so the measured calls stay on the hit path. *)
    transfer 0;
    let iters = 1_000 in
    let bytes =
      measure_alloc (fun () ->
          for i = 1 to iters do
            transfer i
          done)
    in
    bytes /. float_of_int iters
  in
  List.iter
    (fun (dir, write, cold) ->
      Alcotest.(check (float 0.)) (dir ^ ", 1 row: no bytes") 0.
        (per_call ~write ~cold 1);
      Alcotest.(check (float 0.)) (dir ^ ", 32 rows: no bytes") 0.
        (per_call ~write ~cold 32);
      (* 16 rows x 4 B at stride 4 share one L2 line: rows 1-15 are a
         line run. *)
      Alcotest.(check (float 0.)) (dir ^ ", same-line rows: no bytes") 0.
        (per_call ~stride_bytes:4 ~row_bytes:4 ~write ~cold 16);
      (* 16 rows x 16 B at stride 64, one line each: rows 1-15 are a page
         run that walks its lines. *)
      Alcotest.(check (float 0.)) (dir ^ ", line-stride page run: no bytes") 0.
        (per_call ~stride_bytes:64 ~row_bytes:16 ~write ~cold 16))
    [
      ("mvin", false, false);
      ("mvin (cold L2)", false, true);
      ("mvout", true, false);
      ("mvout (cold L2)", true, true);
    ]

(* --- determinism guard ----------------------------------------------------

   The fig7/fig9-style experiments rely on simulated-time interleaving of
   two cores over shared L2/DRAM resources. Run the same dual-core job mix
   on two freshly elaborated SoCs: finish times, and the entire rendered
   engine profile (every component's requests/busy/wait), must be
   byte-identical. *)

let test_dual_core_determinism () =
  let model = Gem_dnn.Model_zoo.(scale_model ~factor:8 squeezenet) in
  let jobs =
    [|
      (model, Runtime.Accel { im2col_on_accel = true });
      (model, Runtime.Accel { im2col_on_accel = false });
    |]
  in
  let run_once () =
    let soc = Soc.create Soc_config.dual_core in
    let rs = Runtime.run_parallel soc jobs in
    let totals = Array.map (fun r -> r.Runtime.r_total_cycles) rs in
    let profile =
      Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ())
    in
    (totals, profile)
  in
  let t1, p1 = run_once () in
  let t2, p2 = run_once () in
  Alcotest.(check (array int)) "finish times identical" t1 t2;
  Alcotest.(check string) "rendered engine profile identical" p1 p2;
  Alcotest.(check bool) "profile mentions both cores" true
    (let has s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has p1 "core0/mesh" && has p1 "core1/mesh")

let suite =
  [
    Alcotest.test_case "resource: zero-occupancy probe" `Quick
      test_resource_zero_occupancy;
    Alcotest.test_case "resource: next_free/occupy_until" `Quick
      test_resource_next_free_occupy;
    Alcotest.test_case "resource: reset" `Quick test_resource_reset;
    Alcotest.test_case "resource: queue-latency histogram" `Quick
      test_resource_latency;
    Alcotest.test_case "resource: acquire_run equals n acquires" `Quick
      test_resource_acquire_run;
    QCheck_alcotest.to_alcotest qcheck_resource_acquire_spaced;
    Alcotest.test_case "resource: acquire_spaced refuses bad input" `Quick
      test_resource_acquire_spaced_refuses;
    Alcotest.test_case "engine: registry and probes" `Quick
      test_engine_registry;
    Alcotest.test_case "engine: clock and stats" `Quick
      test_engine_clock_and_stats;
    Alcotest.test_case "engine: events and sinks" `Quick
      test_engine_events_and_sinks;
    Alcotest.test_case "alloc measure counts minor and major heaps" `Quick
      test_measure_alloc_counts_both_heaps;
    Alcotest.test_case "alloc-free: Resource.acquire" `Quick
      test_alloc_free_resource_acquire;
    Alcotest.test_case "alloc-free: quiet engine acquire" `Quick
      test_alloc_free_engine_quiet;
    Alcotest.test_case "alloc-constant: timing-only DMA transfer" `Quick
      test_alloc_constant_dma_transfer;
    Alcotest.test_case "alloc-constant: SoC-backed DMA transfer" `Quick
      test_alloc_constant_soc_dma_transfer;
    Alcotest.test_case "engine: dual-core determinism" `Quick
      test_dual_core_determinism;
  ]
