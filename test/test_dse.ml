(* The design-space-exploration engine: canonical point hashing, the
   persistent result cache (hit / miss / invalidation on param change and
   version bump), the Domain-pool executor's determinism (--jobs N equals
   serial), and cached-vs-fresh byte identity of the emitted reports. *)

module Point = Gem_dse.Point
module Outcome = Gem_dse.Outcome
module Cache = Gem_dse.Cache
module Exec = Gem_dse.Exec
module Sweep = Gem_dse.Sweep
module Report = Gem_dse.Report
module Soc_config = Gem_soc.Soc_config

(* Small, fast points: a heavily channel-scaled SqueezeNet on 8x8 / 16x16
   arrays (larger arrays simulate in fewer cycles). *)
let tiny_point ?(label = "tiny") ?(dim = 16) ?(scale = 8) () =
  Point.with_accel
    { Gemmini.Params.default with mesh_rows = dim; mesh_cols = dim }
    (Point.make ~label ~model:"squeezenet1.1" ~scale ())

let tiny_sweep () =
  Sweep.cartesian ~base:(Point.make ~model:"squeezenet1.1" ~scale:8 ())
    [
      Sweep.ints "dim"
        (fun dim p ->
          Point.with_accel
            { Gemmini.Params.default with mesh_rows = dim; mesh_cols = dim }
            p)
        [ 8; 16 ];
      Sweep.axis "im2col"
        [
          ("hw", fun p -> { p with Point.mode = Gem_sw.Runtime.Accel { im2col_on_accel = true } });
          ("sw", fun p -> { p with Point.mode = Gem_sw.Runtime.Accel { im2col_on_accel = false } });
        ];
    ]

let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.temp_dir "gem_dse_test" (string_of_int !counter)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- point hashing ---------------------------------------------------------- *)

let test_digest_keys () =
  let p = tiny_point () in
  Alcotest.(check string)
    "digest is stable for equal points" (Point.digest p)
    (Point.digest (tiny_point ()));
  Alcotest.(check string)
    "label is not part of the key" (Point.digest p)
    (Point.digest { p with Point.label = "renamed" });
  let differs name q =
    Alcotest.(check bool)
      (name ^ " changes the digest")
      false
      (String.equal (Point.digest p) (Point.digest q))
  in
  differs "mesh size" (tiny_point ~dim:8 ());
  differs "model scale" (tiny_point ~scale:4 ());
  differs "model" { p with Point.model = "resnet50" };
  differs "mode" { p with Point.mode = Gem_sw.Runtime.Cpu_only };
  differs "simulate flag" { p with Point.simulate = false };
  differs "synth host" { p with Point.synth_host = Gemmini.Synthesis.Boom };
  differs "tlb window" { p with Point.tlb_window = Some 1000. };
  differs "scratchpad capacity"
    (Point.with_accel
       { Gemmini.Params.default with sp_capacity_bytes = 128 * 1024 }
       p);
  differs "tlb entries"
    {
      p with
      Point.soc =
        Soc_config.map_tlb
          (fun t -> { t with Gem_vm.Hierarchy.private_entries = 64 })
          p.Point.soc;
    };
  differs "core count"
    { p with Point.soc = Soc_config.dual_core };
  differs "backend" (Point.with_backend Gem_sw.Backend.Analytic p)

(* --- outcome JSON round-trip ------------------------------------------------ *)

let test_outcome_roundtrip () =
  let o =
    {
      Outcome.empty with
      Outcome.total_cycles = 123_456;
      per_core_cycles = [| 123_456; 120_000 |];
      class_cycles = [ ("conv", 100_000); ("resadd", 23_456) ];
      fmax_ghz = 0.95;
      total_area_um2 = 1.0345e6;
      power_mw = 281.75;
      tlb_requests = 42;
      tlb_hit_rate = 0.98765432109876543;
      tlb_windows = [| (0., 0.25); (200_000., 0.5) |];
      l2_miss_rate = 1. /. 3.;
    }
  in
  let json = Gem_util.Jsonx.to_string (Outcome.to_json o) in
  match Gem_util.Jsonx.of_string json with
  | Error e -> Alcotest.fail ("emitted JSON failed to parse: " ^ e)
  | Ok v -> (
      match Outcome.of_json v with
      | Error e -> Alcotest.fail ("outcome failed to decode: " ^ e)
      | Ok o' ->
          Alcotest.(check bool)
            "outcome round-trips bit-exactly through JSON" true
            (compare o o' = 0))

(* An outcome without backend provenance (written before the seam
   existed) must fail to decode — the cache treats it as a miss and
   re-simulates rather than passing off a result of unknown fidelity. *)
let test_outcome_requires_backend () =
  let json = Outcome.to_json { Outcome.empty with Outcome.backend = "cycle" } in
  (match Outcome.of_json json with
  | Ok o ->
      Alcotest.(check string) "backend survives round-trip" "cycle" o.Outcome.backend
  | Error e -> Alcotest.fail ("outcome with backend failed to decode: " ^ e));
  let stripped =
    match json with
    | Gem_util.Jsonx.Obj fields ->
        Gem_util.Jsonx.Obj
          (List.filter (fun (k, _) -> k <> "backend") fields)
    | _ -> Alcotest.fail "outcome JSON is not an object"
  in
  match Outcome.of_json stripped with
  | Ok _ -> Alcotest.fail "outcome without backend provenance decoded"
  | Error _ -> ()

(* --- cache hit / miss / invalidation ---------------------------------------- *)

let test_cache_hit_miss_invalidation () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) () in
  let points = Sweep.points [ tiny_point () ] in
  let cold = Exec.run ~jobs:1 ~cache:(Some cache) points in
  Alcotest.(check (pair int int))
    "cold run simulates everything" (1, 0)
    (cold.Exec.simulated, cold.Exec.cached);
  let warm = Exec.run ~jobs:1 ~cache:(Some cache) points in
  Alcotest.(check (pair int int))
    "warm run simulates nothing" (0, 1)
    (warm.Exec.simulated, warm.Exec.cached);
  Alcotest.(check bool)
    "cached outcome equals fresh outcome" true
    (compare (snd cold.Exec.results.(0)) (snd warm.Exec.results.(0)) = 0);
  (* A parameter change is a different key: miss. *)
  let changed = Sweep.points [ tiny_point ~dim:32 () ] in
  let other = Exec.run ~jobs:1 ~cache:(Some cache) changed in
  Alcotest.(check (pair int int))
    "param change misses the cache" (1, 0)
    (other.Exec.simulated, other.Exec.cached);
  (* A sim-version bump shelves every entry. *)
  let bumped = Cache.create ~version:"next" ~dir:(Cache.dir cache) () in
  let after_bump = Exec.run ~jobs:1 ~cache:(Some bumped) points in
  Alcotest.(check (pair int int))
    "version bump invalidates the cache" (1, 0)
    (after_bump.Exec.simulated, after_bump.Exec.cached);
  (* A corrupt cache file reads as a miss, not a crash. *)
  let path = Cache.path_of cache (fst cold.Exec.results.(0) |> fun p -> p) in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  let repaired = Exec.run ~jobs:1 ~cache:(Some cache) points in
  Alcotest.(check (pair int int))
    "corrupt entry re-simulates" (1, 0)
    (repaired.Exec.simulated, repaired.Exec.cached);
  (* A truncated entry — a crash mid-write under a non-atomic writer —
     must read as a miss too. (The store path writes temp + rename, so
     this can only come from outside interference, but the reader still
     must not trust it.) *)
  let valid =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc (String.sub valid 0 (String.length valid / 2));
  close_out oc;
  let after_truncation = Exec.run ~jobs:1 ~cache:(Some cache) points in
  Alcotest.(check (pair int int))
    "truncated entry re-simulates" (1, 0)
    (after_truncation.Exec.simulated, after_truncation.Exec.cached)

(* --- parallel executor ------------------------------------------------------ *)

let test_jobs_equality () =
  let points = tiny_sweep () in
  let serial = Exec.run ~jobs:1 ~cache:None points in
  let parallel = Exec.run ~jobs:4 ~cache:None points in
  Alcotest.(check int)
    "same point count"
    (Array.length serial.Exec.results)
    (Array.length parallel.Exec.results);
  Array.iteri
    (fun i (p, o) ->
      let p', o' = parallel.Exec.results.(i) in
      Alcotest.(check string)
        (Printf.sprintf "point %d label" i)
        p.Point.label p'.Point.label;
      Alcotest.(check bool)
        (Printf.sprintf "point %d outcome identical under --jobs 4" i)
        true
        (compare o o' = 0))
    serial.Exec.results

let test_jobs_zero_is_nproc () =
  (* jobs = 0 must resolve to the machine's recommended count and still
     produce ordered, serial-equal results. *)
  let points = Sweep.points [ tiny_point (); tiny_point ~dim:8 () ] in
  let serial = Exec.run ~jobs:1 ~cache:None points in
  let auto = Exec.run ~jobs:0 ~cache:None points in
  Alcotest.(check bool)
    "jobs 0 equals serial" true
    (compare
       (Array.map snd serial.Exec.results)
       (Array.map snd auto.Exec.results)
    = 0)

let test_worker_exception_propagates () =
  let bad = { (tiny_point ()) with Point.model = "no-such-model" } in
  let points = Sweep.points [ tiny_point (); bad ] in
  match Exec.run ~jobs:3 ~cache:None points with
  | _ -> Alcotest.fail "unknown model must raise"
  | exception Invalid_argument _ -> ()

let test_default_jobs_env () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "GEMMINI_DSE_JOBS") in
  let jobs_with value =
    Unix.putenv "GEMMINI_DSE_JOBS" value;
    Exec.default_jobs ()
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "GEMMINI_DSE_JOBS" saved)
    (fun () ->
      Alcotest.(check int) "empty means unset" 1 (jobs_with "");
      Alcotest.(check int) "explicit count" 3 (jobs_with "3");
      Alcotest.(check int)
        "0 means the recommended count"
        (Domain.recommended_domain_count ())
        (jobs_with "0");
      List.iter
        (fun bad ->
          match jobs_with bad with
          | n -> Alcotest.failf "GEMMINI_DSE_JOBS=%S gave %d jobs" bad n
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "error for %S names the variable and value" bad)
                true
                (contains ~sub:"GEMMINI_DSE_JOBS" msg && contains ~sub:bad msg))
        [ "abc"; "-2" ])

(* --- resumable sweeps: the cache is the only outcome store ------------------- *)

let test_cache_resume_byte_identity () =
  let points = tiny_sweep () in
  let half = Array.sub points 0 (Array.length points / 2) in
  (* The uninterrupted reference. *)
  let full = Exec.run ~jobs:1 ~cache:None points in
  (* A "killed" sweep: only the first half of the points completed. *)
  let cache = Cache.create ~dir:(fresh_cache_dir ()) () in
  let _ = Exec.run ~jobs:1 ~cache:(Some cache) half in
  (* The rerun over the same cache evaluates only the rest. *)
  let resumed = Exec.run ~jobs:2 ~cache:(Some cache) points in
  Alcotest.(check (pair int int))
    "only the remainder simulated"
    (Array.length points - Array.length half, Array.length half)
    (resumed.Exec.simulated, resumed.Exec.cached);
  Alcotest.(check string)
    "resumed report byte-identical to uninterrupted run"
    (Report.json_string full.Exec.results)
    (Report.json_string resumed.Exec.results)

let test_failed_sweep_keeps_completed () =
  let good = tiny_point () in
  let bad = { (tiny_point ()) with Point.model = "no-such-model" } in
  let cache = Cache.create ~dir:(fresh_cache_dir ()) () in
  (match Exec.run ~jobs:1 ~cache:(Some cache) (Sweep.points [ good; bad ]) with
  | _ -> Alcotest.fail "unknown model must raise"
  | exception Invalid_argument _ -> ());
  let rerun = Exec.run ~jobs:1 ~cache:(Some cache) (Sweep.points [ good ]) in
  Alcotest.(check (pair int int))
    "the completed point comes from the cache" (0, 1)
    (rerun.Exec.simulated, rerun.Exec.cached)

(* --- cached-vs-fresh byte identity ------------------------------------------ *)

let test_cached_report_byte_identity () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) () in
  let points = tiny_sweep () in
  let fresh = Exec.run ~jobs:2 ~cache:(Some cache) points in
  let cached = Exec.run ~jobs:1 ~cache:(Some cache) points in
  Alcotest.(check int) "everything came from the cache" 0 cached.Exec.simulated;
  Alcotest.(check string)
    "JSON report byte-identical from warm cache"
    (Report.json_string fresh.Exec.results)
    (Report.json_string cached.Exec.results);
  Alcotest.(check string)
    "CSV report byte-identical from warm cache"
    (Report.csv fresh.Exec.results)
    (Report.csv cached.Exec.results)

let suite =
  [
    Alcotest.test_case "digest: canonical keys" `Quick test_digest_keys;
    Alcotest.test_case "outcome: exact JSON round-trip" `Quick
      test_outcome_roundtrip;
    Alcotest.test_case "outcome: backend provenance is mandatory" `Quick
      test_outcome_requires_backend;
    Alcotest.test_case "cache: hit/miss/invalidation" `Quick
      test_cache_hit_miss_invalidation;
    Alcotest.test_case "exec: jobs 1 = jobs 4" `Quick test_jobs_equality;
    Alcotest.test_case "exec: jobs 0 = nproc" `Quick test_jobs_zero_is_nproc;
    Alcotest.test_case "exec: worker exception propagates" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "cache: report byte identity" `Quick
      test_cached_report_byte_identity;
    Alcotest.test_case "exec: GEMMINI_DSE_JOBS is validated" `Quick
      test_default_jobs_env;
    Alcotest.test_case "exec: cache resume byte identity" `Quick
      test_cache_resume_byte_identity;
    Alcotest.test_case "exec: failed sweep keeps completed points" `Quick
      test_failed_sweep_keeps_completed;
  ]
