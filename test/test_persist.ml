(* Checkpoint/restore: envelope integrity (version, checksum, atomic
   write), byte-identical resumption across the model zoo, the
   Resume_checkpoint replay loop, and the file-level round trip the CLI
   uses. *)

open Gem_util
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Persist = Gem_persist.Persist
module Fault = Gem_sim.Fault
module J = Jsonx

let accel_mode = Runtime.Accel { im2col_on_accel = true }

let scaled name =
  match Gem_dnn.Model_zoo.find name with
  | Some m -> Gem_dnn.Model_zoo.scale_model ~factor:8 m
  | None -> Alcotest.failf "model zoo lost %S" name

let squeezenet8 = scaled "squeezenet1.1"

let temp_path suffix =
  Filename.temp_file "gem_persist_test" suffix

(* --- envelope ---------------------------------------------------------------- *)

let test_envelope_roundtrip () =
  let path = temp_path ".json" in
  let payload =
    J.Obj [ ("clock", J.Int 12345); ("data", J.List [ J.Int 1; J.Int 2; J.Int 3 ]) ]
  in
  let meta = [ ("model", J.String "test"); ("layers_done", J.Int 7) ] in
  Persist.save ~path ~meta ~payload;
  (match Persist.load ~path with
  | Error msg -> Alcotest.failf "fresh envelope rejected: %s" msg
  | Ok (meta', payload') ->
      Alcotest.(check string)
        "meta round-trips"
        (J.to_string (J.Obj meta))
        (J.to_string (J.Obj meta'));
      Alcotest.(check string)
        "payload round-trips" (J.to_string payload) (J.to_string payload'));
  Sys.remove path

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" what
  | Error _ -> ()

let test_envelope_rejects () =
  let path = temp_path ".json" in
  (* Truncated write: a crash halfway through a non-atomic writer. *)
  Persist.save ~path ~meta:[] ~payload:(J.Obj [ ("x", J.Int 1) ]);
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  write_raw path (String.sub raw 0 (String.length raw / 2));
  expect_error "truncated file" (Persist.load ~path);
  (* Checksum mismatch: payload bits changed after sealing. *)
  let bogus checksum version =
    J.to_string
      (J.Obj
         [ ("gem_persist_version", J.String version);
           ("checksum", J.String checksum);
           ("meta", J.Obj []);
           ("payload", J.Int 42) ])
  in
  write_raw path (bogus (String.make 32 '0') Persist.format_version);
  expect_error "corrupt payload" (Persist.load ~path);
  (* Version from a different build. *)
  write_raw path (bogus (String.make 32 '0') "999");
  expect_error "version mismatch" (Persist.load ~path);
  (* Version 1 snapshots carried the engine's event ring; a well-formed
     one (valid checksum) is still refused on its version alone. *)
  write_raw path (bogus (Digest.to_hex (Digest.string "42")) "1");
  expect_error "version 1 envelope" (Persist.load ~path);
  (* Not JSON at all. *)
  write_raw path "{ not json";
  expect_error "garbage" (Persist.load ~path);
  (* Missing file. *)
  Sys.remove path;
  expect_error "missing file" (Persist.load ~path)

(* --- restore determinism across the zoo --------------------------------------- *)

(* The golden property: interrupt a run at a mid-network checkpoint,
   rebuild a fresh SoC, restore, run the remainder — the final cycle
   count, per-layer records, profile table and the full serialized SoC
   state (engine clock, resource counters, fault tallies, memory contents)
   must be byte-identical to the uninterrupted run's. *)
let check_restore_identity model =
  let name = model.Gem_dnn.Layer.model_name in
  let soc1 = Soc.create Soc_config.default in
  let r1 = Runtime.run soc1 ~core:0 model ~mode:accel_mode in
  let snap1 = J.to_string (Soc.snapshot soc1) in
  let k = List.length model.Gem_dnn.Layer.layers / 2 in
  let soc2 = Soc.create Soc_config.default in
  let mid = ref None in
  let _ =
    Runtime.run_parallel
      ~on_layer:(fun ~layer ~records ~finish ->
        if layer = k then mid := Some (records, finish, Soc.snapshot soc2))
      soc2 [| (model, accel_mode) |]
  in
  let records, finish, soc_json =
    match !mid with
    | Some v -> v
    | None -> Alcotest.failf "%s: no checkpoint captured at layer %d" name k
  in
  let soc3 = Soc.create Soc_config.default in
  let r3 =
    (Runtime.run_parallel
       ~prepare:(fun () -> Soc.restore soc3 soc_json)
       ~start_layer:(k + 1) ~resume:(records, finish) soc3
       [| (model, accel_mode) |]).(0)
  in
  Alcotest.(check int)
    (name ^ ": total cycles") r1.Runtime.r_total_cycles
    r3.Runtime.r_total_cycles;
  Alcotest.(check bool)
    (name ^ ": per-layer records identical") true
    (r1.Runtime.r_layers = r3.Runtime.r_layers);
  Alcotest.(check bool)
    (name ^ ": profile table identical") true
    (r1.Runtime.r_profile = r3.Runtime.r_profile);
  Alcotest.(check string)
    (name ^ ": final SoC state byte-identical") snap1
    (J.to_string (Soc.snapshot soc3))

let test_restore_zoo () =
  List.iter
    (fun name -> check_restore_identity (scaled name))
    Gem_dnn.Model_zoo.names

(* A checkpoint restored into a *different* configuration must refuse,
   not half-restore. *)
let test_restore_shape_mismatch () =
  let soc = Soc.create Soc_config.default in
  let _ = Runtime.run soc ~core:0 squeezenet8 ~mode:accel_mode in
  let snap = Soc.snapshot soc in
  let other = Soc.create Soc_config.dual_core in
  (match Soc.restore other snap with
  | () -> Alcotest.fail "restore into a dual-core SoC must raise"
  | exception Snap.Malformed _ -> ());
  (* And the trivial sanity: restoring into a matching fresh SoC works. *)
  let same = Soc.create Soc_config.default in
  Soc.restore same snap;
  Alcotest.(check string)
    "restore is lossless" (J.to_string snap)
    (J.to_string (Soc.snapshot same))

(* --- the run driver (what the CLI runs) ------------------------------------------- *)

let sq8 = { Persist.default with jobs = [| (squeezenet8, accel_mode) |] }
let result o = o.Persist.o_results.(0)

(* With no checkpoint the driver is one plain run: the same results as
   [Runtime.run_parallel] (cycle) or [Backend_analytic.run] (analytic), the
   SoC it hands [attach] ends in the same state, and the analytic path
   builds no SoC at all. *)
let driver_cases =
  [ ("cycle, 1 core", Gem_sw.Backend.Cycle, Soc_config.default, 1);
    ("cycle, 2 cores", Gem_sw.Backend.Cycle, Soc_config.dual_core, 2);
    ("analytic, 1 core", Gem_sw.Backend.Analytic, Soc_config.default, 1);
    ("analytic, 2 cores", Gem_sw.Backend.Analytic, Soc_config.dual_core, 2) ]

let snapshot_digest soc = Digest.to_hex (Digest.string (J.to_string (Soc.snapshot soc)))

let test_driver_equals_backend (label, backend, config, cores) () =
  let jobs = Array.make cores (squeezenet8, accel_mode) in
  let want, want_digest =
    match backend with
    | Gem_sw.Backend.Cycle ->
        let soc = Soc.create config in
        let results = Runtime.run_parallel soc jobs in
        (results, Some (snapshot_digest soc))
    | Gem_sw.Backend.Analytic ->
        (Gem_sw.Backend_analytic.run (Gem_sw.Backend.request ~config jobs), None)
  in
  let built = ref [] in
  let got =
    Persist.run
      ~attach:(fun soc -> built := soc :: !built)
      { Persist.default with backend; config; jobs }
  in
  Alcotest.(check bool) (label ^ ": results") true (want = got.Persist.o_results);
  Alcotest.(check (option string)) (label ^ ": SoC state") want_digest
    (match !built with
    | [] -> None
    | [ soc ] -> Some (snapshot_digest soc)
    | _ -> Alcotest.failf "%s: attach called %d times" label (List.length !built));
  Alcotest.(check int) (label ^ ": no checkpoints") 0 got.Persist.o_checkpoints

let test_driver_file_roundtrip () =
  let path = temp_path ".ckpt" in
  let clean = Persist.run sq8 in
  let ck_run =
    Persist.run { sq8 with checkpoint_every = Some 3; checkpoint_out = Some path }
  in
  Alcotest.(check bool) "checkpoints taken" true (ck_run.Persist.o_checkpoints > 0);
  Alcotest.(check int)
    "checkpointing does not perturb timing"
    (result clean).Runtime.r_total_cycles
    (result ck_run).Runtime.r_total_cycles;
  (* Resume from whatever checkpoint the file holds. *)
  let ck =
    match Persist.load_checkpoint ~path with
    | Ok ck -> ck
    | Error msg -> Alcotest.failf "reload failed: %s" msg
  in
  Alcotest.(check bool) "mid-run checkpoint" true (ck.Persist.ck_next_layer > 0);
  let resumed = Persist.run { sq8 with restore = Some ck } in
  Alcotest.(check int)
    "resumed run reproduces the uninterrupted total"
    (result clean).Runtime.r_total_cycles
    (result resumed).Runtime.r_total_cycles;
  Alcotest.(check bool)
    "resumed run reproduces the full layer table" true
    ((result clean).Runtime.r_layers
    = (result resumed).Runtime.r_layers);
  (* Mismatched metadata refuses up front. *)
  (match
     Persist.run
       { sq8 with restore = Some ck; jobs = [| (scaled "alexnet", accel_mode) |] }
   with
  | _ -> Alcotest.fail "restoring a squeezenet checkpoint into alexnet must raise"
  | exception Invalid_argument _ -> ());
  Sys.remove path

(* --- Resume_checkpoint replay --------------------------------------------------- *)

let test_resume_checkpoint_recovers () =
  (* Injected faults under Resume_checkpoint: each trap replays from the
     last quiesced snapshot with a re-salted plan until an attempt's
     remaining draws stay clean. Deterministic: same seeds, same replay
     count, same final total. *)
  let go () =
    Persist.run
      { sq8 with
        policy = Runtime.Resume_checkpoint;
        inject = Some (42, 0.00002);
        checkpoint_every = Some 2;
        max_replays = 20 }
  in
  let o1 = go () in
  Alcotest.(check bool) "run completed" true
    ((result o1).Runtime.r_total_cycles > 0);
  Alcotest.(check bool) "replays happened" true (o1.Persist.o_replays > 0);
  Alcotest.(check int) "all layers accounted"
    (List.length squeezenet8.Gem_dnn.Layer.layers)
    (List.length (result o1).Runtime.r_layers);
  let o2 = go () in
  Alcotest.(check int) "deterministic replay count" o1.Persist.o_replays
    o2.Persist.o_replays;
  Alcotest.(check int) "deterministic final total"
    (result o1).Runtime.r_total_cycles
    (result o2).Runtime.r_total_cycles

let test_resume_checkpoint_bounded () =
  (* A watchdog trip is not transient: every replay re-trips it, so the
     budget must exhaust and the trap propagate instead of looping. *)
  match
    Persist.run
      { sq8 with
        policy = Runtime.Resume_checkpoint;
        watchdog = Some 50;
        checkpoint_every = Some 2;
        max_replays = 2 }
  with
  | _ -> Alcotest.fail "exhausted replays must propagate the trap"
  | exception Fault.Trap f ->
      Alcotest.(check string) "cause" "watchdog-timeout"
        (Fault.cause_label f.Fault.cause)

(* --- pinned snapshot bytes ------------------------------------------------------ *)

(* Digests of [Soc.snapshot]'s serialization for three chip states, taken
   before the component snapshots moved onto the shared codec. Any change
   to a snapshot byte moves one of them, and a byte change means
   [Persist.format_version] must be bumped. *)

let timing_2core_injected () =
  let soc = Soc.create Soc_config.dual_core in
  Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let model = Gem_dnn.Model_zoo.(scale_model ~factor:32 mobilenetv2) in
  ignore
    (Runtime.run_parallel ~policy:Runtime.Retry_map soc
       (Array.init 2 (fun i ->
            (model, Runtime.Accel { im2col_on_accel = i mod 2 = 0 }))));
  soc

let functional_1core_matmul () =
  let soc = Soc.create (Soc_config.with_functional true Soc_config.default) in
  let core = Soc.core soc 0 in
  let va = Soc.alloc soc core ~bytes:(1 lsl 16) in
  Soc.host_write_i8 soc core ~vaddr:va
    (Array.init 4096 (fun i -> (i * 7 mod 256) - 128));
  let ops =
    Gem_sw.Kernels.matmul_ops Gemmini.Params.default ~a:va ~b:(va + 1024)
      ~out:(va + 32768) ~m:32 ~k:32 ~n:32 ()
    @ [ Gem_sw.Kernels.fence ]
  in
  ignore (Soc.run_program soc core (List.to_seq ops));
  soc

let snapshot_digests =
  [ ("2-core timing mobilenetv2/32, injection armed", timing_2core_injected,
     "47c510d811254a69783b34262af53f34");
    ("1-core functional matmul", functional_1core_matmul,
     "13f2804c8077908c510520e1760bd5bf");
    ("fresh timing SoC", (fun () -> Soc.create Soc_config.default),
     "1bb28a76b375746b07511b297e315739") ]

let test_snapshot_digests () =
  List.iter
    (fun (label, setup, want) ->
      let got =
        Digest.to_hex (Digest.string (J.to_string (Soc.snapshot (setup ()))))
      in
      Alcotest.(check string) label want got)
    snapshot_digests

(* --- one codec per component -------------------------------------------------- *)

(* Every component's snapshot survives a restore into a fresh instance
   byte for byte: snapshot (restore (snapshot x)) = snapshot x. Each case
   gives the component after a short run and a fresh one of its shape. *)
type roundtrip =
  | Roundtrip : {
      name : string;
      save : 'a -> J.t;
      restore : 'a -> J.t -> unit;
      pair : unit -> 'a * 'a;
    }
      -> roundtrip

let codec name c pair =
  Roundtrip { name; save = Snap.snapshot c; restore = Snap.restore c; pair }

let timing = lazy (timing_2core_injected ())
let functional = lazy (functional_1core_matmul ())
let functional_config = Soc_config.with_functional true Soc_config.default

let in_soc setup config get () = (get (Lazy.force setup), get (Soc.create config))
let core0 f soc = f (Soc.core soc 0)
let controller0 f = core0 (fun c -> f (Soc.controller c))

let tlb_after_run () =
  let t = Gem_vm.Tlb.create ~entries:4 in
  for vpn = 1 to 6 do
    Gem_vm.Tlb.fill t ~vpn ~ppn:(vpn + 100);
    ignore (Gem_vm.Tlb.lookup t ~vpn:(vpn - 1))
  done;
  Gem_vm.Tlb.invalidate t ~vpn:5;
  t

let ptw () =
  let page_table = Gem_vm.Page_table.create ~node_region_base:0x4000_0000 () in
  let ptw =
    Gem_vm.Ptw.create ~pte_cache_entries:2 ~page_table
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 10)
      ()
  in
  (page_table, ptw)

let ptw_after_run () =
  let page_table, ptw = ptw () in
  for i = 0 to 9 do
    Gem_vm.Page_table.map page_table ~vpn:(i * 600) ~ppn:i;
    ignore (Gem_vm.Ptw.walk ptw ~now:(i * 100) ~vpn:(i * 600))
  done;
  ptw

let sram () = Gem_mem.Sram.create ~banks:2 ~rows_per_bank:4 ~elems_per_row:4 ~data:true

let sram_after_run () =
  let s = sram () in
  Gem_mem.Sram.write_row s ~row:5 [| 1; -2; 3 |];
  Gem_mem.Sram.accumulate_row s ~row:5 [| 10; 10; 10; 10 |];
  ignore (Gem_mem.Sram.read_row s ~row:1);
  s

let roundtrips =
  let dual = Soc_config.dual_core in
  [ codec "engine" Gem_sim.Engine.codec (in_soc timing dual Soc.engine);
    codec "cache" Gem_mem.Cache.codec (in_soc timing dual Soc.l2);
    codec "dram" Gem_mem.Dram.codec (in_soc timing dual Soc.dram);
    codec "mainmem" Gem_mem.Mainmem.codec
      (in_soc functional functional_config (fun s -> Option.get (Soc.mainmem s)));
    codec "sram" Gem_mem.Sram.codec (fun () -> (sram_after_run (), sram ()));
    codec "tlb" Gem_vm.Tlb.codec (fun () ->
        (tlb_after_run (), Gem_vm.Tlb.create ~entries:4));
    codec "ptw" Gem_vm.Ptw.codec (fun () -> (ptw_after_run (), snd (ptw ())));
    codec "page table" Gem_vm.Page_table.codec (in_soc timing dual (core0 Soc.page_table));
    codec "hierarchy" Gem_vm.Hierarchy.codec (in_soc timing dual (core0 Soc.tlb));
    codec "controller" Gemmini.Controller.codec
      (in_soc functional functional_config (controller0 Fun.id));
    codec "scratchpad" Gemmini.Scratchpad.codec
      (in_soc functional functional_config (controller0 Gemmini.Controller.scratchpad));
    codec "dma" Gemmini.Dma.codec (in_soc timing dual (controller0 Gemmini.Controller.dma));
    codec "inject" Gem_sim.Inject.codec (fun () ->
        ( Option.get (controller0 (fun c -> Gemmini.Dma.inject (Gemmini.Controller.dma c))
                        (Lazy.force timing)),
          Gem_sim.Inject.create ~seed:0 ~rate:0. () ));
    Roundtrip
      { name = "soc"; save = Soc.snapshot; restore = Soc.restore;
        pair = (fun () -> (Lazy.force timing, Soc.create dual)) } ]

let test_roundtrips () =
  List.iter
    (fun (Roundtrip { name; save; restore; pair }) ->
      let ran, fresh = pair () in
      let snap = J.to_string (save ran) in
      Alcotest.(check bool) (name ^ ": fresh state differs") true
        (J.to_string (save fresh) <> snap);
      restore fresh (save ran);
      Alcotest.(check string) (name ^ ": restored snapshot") snap (J.to_string (save fresh)))
    roundtrips

(* --- malformed payloads ------------------------------------------------------- *)

(* [edit path f j] applies [f] at [path]: object keys, and list indices
   as decimal strings. *)
let rec edit path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then edit rest f v else v)) kvs)
  | i :: rest, J.List l ->
      J.List (List.mapi (fun i' v -> if string_of_int i' = i then edit rest f v else v) l)
  | _ -> Alcotest.failf "no %s in the snapshot" (String.concat "." path)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let allocated_soc () =
  let soc = Soc.create Soc_config.default in
  ignore (Soc.alloc soc (Soc.core soc 0) ~bytes:8192);
  soc

let rename_key from into = function
  | J.Obj kvs -> J.Obj (List.map (fun (k, v) -> ((if k = from then into else k), v)) kvs)
  | j -> j

let drop_key key = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> key) kvs)
  | j -> j

(* Each crafted payload must raise [Snap.Malformed] naming the problem. *)
let malformed =
  let root = [ "cores"; "0"; "pt"; "root" ] in
  [ ( "page-table child index out of range",
      edit (root @ [ "c"; "0"; "0" ]) (fun _ -> J.Int 99999),
      "page-table child index 99999 outside [0, 512)" );
    ( "page-table leaf index out of range",
      edit (root @ [ "c"; "0"; "1"; "c"; "0"; "1"; "l"; "0"; "0" ]) (fun _ -> J.Int 512),
      "page-table leaf index 512 outside [0, 512)" );
    ( "engine resource named twice",
      edit [ "engine"; "resources" ] (rename_key "l2-port" "dram"),
      "\"dram\" named twice" );
    ( "engine resource left out",
      edit [ "engine"; "resources" ] (drop_key "l2-port"),
      "resource \"l2-port\" is missing" ) ]

let test_malformed (what, craft, names) () =
  let payload = craft (Soc.snapshot (allocated_soc ())) in
  match Soc.restore (allocated_soc ()) payload with
  | () -> Alcotest.failf "%s: restore accepted the payload" what
  | exception Snap.Malformed msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %S" msg names) true (contains ~sub:names msg)

let suite =
  [
    Alcotest.test_case "snapshot bytes are pinned" `Quick test_snapshot_digests;
    Alcotest.test_case "every component codec round-trips" `Quick test_roundtrips;
    Alcotest.test_case "envelope round-trip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "envelope rejects corrupt/truncated/foreign" `Quick
      test_envelope_rejects;
    Alcotest.test_case "restore determinism across the model zoo" `Slow
      test_restore_zoo;
    Alcotest.test_case "restore refuses a mismatched SoC" `Quick
      test_restore_shape_mismatch;
    Alcotest.test_case "driver: checkpoint file round-trip" `Quick
      test_driver_file_roundtrip;
    Alcotest.test_case "Resume_checkpoint replays to completion" `Quick
      test_resume_checkpoint_recovers;
    Alcotest.test_case "Resume_checkpoint budget is bounded" `Quick
      test_resume_checkpoint_bounded;
  ]
  @ List.map
      (fun ((label, _, _, _) as case) ->
        Alcotest.test_case ("driver equals the backend: " ^ label) `Quick
          (test_driver_equals_backend case))
      driver_cases
  @ List.map
      (fun ((what, _, _) as case) ->
        Alcotest.test_case ("restore refuses: " ^ what) `Quick (test_malformed case))
      malformed
