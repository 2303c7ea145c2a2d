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
    J.Obj [ ("clock", J.Int 12345); ("data", Snap.of_int_list [ 1; 2; 3 ]) ]
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
    Runtime.run
      ~on_layer:(fun ~layer ~records ~finish ->
        if layer = k then mid := Some (records, finish, Soc.snapshot soc2))
      soc2 ~core:0 model ~mode:accel_mode
  in
  let records, finish, soc_json =
    match !mid with
    | Some v -> v
    | None -> Alcotest.failf "%s: no checkpoint captured at layer %d" name k
  in
  let soc3 = Soc.create Soc_config.default in
  let r3 =
    Runtime.run
      ~prepare:(fun _ -> Soc.restore soc3 soc_json)
      ~start_layer:(k + 1) ~resume:(records, finish) soc3 ~core:0 model
      ~mode:accel_mode
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

(* --- the file-level driver (what the CLI runs) --------------------------------- *)

let test_driver_file_roundtrip () =
  let path = temp_path ".ckpt" in
  let config = Soc_config.default in
  let clean =
    Persist.run ~config ~core:0 squeezenet8 ~mode:accel_mode
  in
  let ck_run =
    Persist.run ~checkpoint_every:3 ~checkpoint_out:path ~config ~core:0
      squeezenet8 ~mode:accel_mode
  in
  Alcotest.(check bool) "checkpoints taken" true (ck_run.Persist.o_checkpoints > 0);
  Alcotest.(check int)
    "checkpointing does not perturb timing"
    clean.Persist.o_result.Runtime.r_total_cycles
    ck_run.Persist.o_result.Runtime.r_total_cycles;
  (* Resume from whatever checkpoint the file holds. *)
  let ck =
    match Persist.load_checkpoint ~path with
    | Ok ck -> ck
    | Error msg -> Alcotest.failf "reload failed: %s" msg
  in
  Alcotest.(check bool) "mid-run checkpoint" true (ck.Persist.ck_next_layer > 0);
  let resumed =
    Persist.run ~restore:ck ~config ~core:0 squeezenet8 ~mode:accel_mode
  in
  Alcotest.(check int)
    "resumed run reproduces the uninterrupted total"
    clean.Persist.o_result.Runtime.r_total_cycles
    resumed.Persist.o_result.Runtime.r_total_cycles;
  Alcotest.(check bool)
    "resumed run reproduces the full layer table" true
    (clean.Persist.o_result.Runtime.r_layers
    = resumed.Persist.o_result.Runtime.r_layers);
  (* Mismatched metadata refuses up front. *)
  (match
     Persist.run ~restore:ck ~config ~core:0 (scaled "alexnet")
       ~mode:accel_mode
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
    Persist.run ~policy:Runtime.Resume_checkpoint ~inject:(42, 0.00002)
      ~checkpoint_every:2 ~max_replays:20 ~config:Soc_config.default ~core:0
      squeezenet8 ~mode:accel_mode
  in
  let o1 = go () in
  Alcotest.(check bool) "run completed" true
    (o1.Persist.o_result.Runtime.r_total_cycles > 0);
  Alcotest.(check bool) "replays happened" true (o1.Persist.o_replays > 0);
  Alcotest.(check int) "all layers accounted"
    (List.length squeezenet8.Gem_dnn.Layer.layers)
    (List.length o1.Persist.o_result.Runtime.r_layers);
  let o2 = go () in
  Alcotest.(check int) "deterministic replay count" o1.Persist.o_replays
    o2.Persist.o_replays;
  Alcotest.(check int) "deterministic final total"
    o1.Persist.o_result.Runtime.r_total_cycles
    o2.Persist.o_result.Runtime.r_total_cycles

let test_resume_checkpoint_bounded () =
  (* A watchdog trip is not transient: every replay re-trips it, so the
     budget must exhaust and the trap propagate instead of looping. *)
  match
    Persist.run ~policy:Runtime.Resume_checkpoint ~watchdog:50
      ~checkpoint_every:2 ~max_replays:2 ~config:Soc_config.default ~core:0
      squeezenet8 ~mode:accel_mode
  with
  | _ -> Alcotest.fail "exhausted replays must propagate the trap"
  | exception Fault.Trap f ->
      Alcotest.(check string) "cause" "watchdog-timeout"
        (Fault.cause_label f.Fault.cause)

let suite =
  [
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
