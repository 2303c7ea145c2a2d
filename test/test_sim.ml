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

(* --- Heap ------------------------------------------------------------------ *)

let drain h =
  let rec go acc =
    match Heap.pop h with None -> List.rev acc | Some kv -> go (kv :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek on empty" None (Heap.peek_key h);
  List.iter
    (fun k -> Heap.push h ~key:k (10 * k))
    [ 7; 3; 9; 1; 4; 8; 2; 6; 5; 0 ];
  Alcotest.(check int) "size" 10 (Heap.size h);
  Alcotest.(check (option int)) "peek is min" (Some 0) (Heap.peek_key h);
  Alcotest.(check (list (pair int int))) "pops sorted by key"
    (List.init 10 (fun k -> (k, 10 * k)))
    (drain h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_tie_stability () =
  (* The multi-core driver breaks equal-time ties by insertion order;
     equal keys must pop FIFO even across sift-up/down reshuffles. *)
  let h = Heap.create () in
  Heap.push h ~key:5 "a";
  Heap.push h ~key:3 "x";
  Heap.push h ~key:5 "b";
  Heap.push h ~key:1 "y";
  Heap.push h ~key:5 "c";
  Alcotest.(check (list (pair int string))) "ties pop in insertion order"
    [ (1, "y"); (3, "x"); (5, "a"); (5, "b"); (5, "c") ]
    (drain h);
  (* Stability must survive interleaved pops (the seq counter keeps
     advancing; it is not reset by reaching empty). *)
  Heap.push h ~key:2 "p";
  Heap.push h ~key:2 "q";
  Alcotest.(check (option (pair int string))) "reuse after drain"
    (Some (2, "p")) (Heap.pop h);
  Heap.push h ~key:2 "r";
  Alcotest.(check (list (pair int string))) "FIFO across interleaved pops"
    [ (2, "q"); (2, "r") ]
    (drain h)

let test_heap_grow_shrink () =
  (* Push far past the initial capacity, drain to empty, and reuse: the
     backing array growth must be invisible to ordering. *)
  let h = Heap.create () in
  for i = 99 downto 0 do
    Heap.push h ~key:i i
  done;
  Alcotest.(check int) "grew past initial capacity" 100 (Heap.size h);
  Alcotest.(check (list (pair int int))) "descending inserts pop ascending"
    (List.init 100 (fun i -> (i, i)))
    (drain h);
  (* Shrink back to empty and round-trip again across the old boundary. *)
  for round = 1 to 3 do
    for i = 0 to 20 do
      Heap.push h ~key:(i mod 4) (round * 100 + i)
    done;
    let keys = List.map fst (drain h) in
    Alcotest.(check (list int)) "reused heap still sorted"
      (List.sort compare keys) keys;
    Alcotest.(check bool) "empty again" true (Heap.is_empty h)
  done

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
  Alcotest.(check (float 0.)) "Resource.acquire allocates nothing" 0. bytes

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
     translation slot and the DMA's cursor fields, so allocation per
     transfer is one constant-size result record — independent of the
     row count. *)
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
  let one = per_call 1 and many = per_call 32 in
  Alcotest.(check (float 0.)) "per-transfer bytes independent of rows" one
    many;
  Alcotest.(check bool) "per-transfer bytes are one small record" true
    (one <= 64.)

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
  let per_call ~write ~cold rows =
    let transfer i =
      if cold then Gem_mem.Cache.invalidate_all (Soc.l2 soc);
      if write then
        ignore
          (Gemmini.Dma.mvout_timing_rows dma ~now:(i * 10_000) ~vaddr:va
             ~stride_bytes:64 ~rows ~row_bytes:64)
      else
        ignore
          (Gemmini.Dma.mvin dma ~now:(i * 10_000) ~vaddr:va ~stride_bytes:64
             ~rows ~row_bytes:64)
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
      let one = per_call ~write ~cold 1 and many = per_call ~write ~cold 32 in
      Alcotest.(check (float 0.)) (dir ^ " bytes independent of rows") one many;
      Alcotest.(check bool) (dir ^ " bytes are one small result") true
        (one <= 64.))
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
    Alcotest.test_case "engine: registry and probes" `Quick
      test_engine_registry;
    Alcotest.test_case "engine: clock and stats" `Quick
      test_engine_clock_and_stats;
    Alcotest.test_case "engine: events and sinks" `Quick
      test_engine_events_and_sinks;
    Alcotest.test_case "heap: ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap: same-key insertion order" `Quick
      test_heap_tie_stability;
    Alcotest.test_case "heap: grow, drain, reuse" `Quick test_heap_grow_shrink;
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
