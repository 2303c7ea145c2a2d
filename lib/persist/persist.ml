module J = Gem_util.Jsonx
module Snap = Gem_util.Snap
module Soc = Gem_soc.Soc
module Runtime = Gem_sw.Runtime
module Layer = Gem_dnn.Layer
module Fault = Gem_sim.Fault

let format_version = "2"

(* --- envelope --------------------------------------------------------------- *)

(* The checksum covers the payload's canonical serialization (our own
   serializer is deterministic), so bit rot anywhere inside the state is
   caught before a single field restores. *)
let payload_checksum payload = Digest.to_hex (Digest.string (J.to_string payload))

let save ~path ~meta ~payload =
  let envelope =
    J.Obj
      [ ("gem_persist_version", J.String format_version);
        ("checksum", J.String (payload_checksum payload));
        ("meta", J.Obj meta);
        ("payload", payload) ]
  in
  (* Same-directory temp + rename: the rename is atomic on POSIX, so a
     crash (or SIGKILL) at any point leaves either the old file or a
     stray temp — never a truncated checkpoint under the real name. The
     pid keeps concurrent writers (sweep workers, parallel CI jobs) off
     each other's temp files. *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (match
     (output_string oc (J.to_string envelope); output_char oc '\n')
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | raw -> (
      match J.of_string raw with
      | Error msg -> Error (Printf.sprintf "%s: malformed JSON: %s" path msg)
      | Ok env -> (
          try
            let version = Snap.get_str "gem_persist_version" env in
            if version <> format_version then
              Error
                (Printf.sprintf "%s: format version %S, this build reads %S"
                   path version format_version)
            else begin
              let payload = Snap.member "payload" env in
              let expect = Snap.get_str "checksum" env in
              let got = payload_checksum payload in
              if got <> expect then
                Error
                  (Printf.sprintf "%s: checksum mismatch (file %s, payload %s)"
                     path expect got)
              else Ok (Snap.obj (Snap.member "meta" env), payload)
            end
          with Snap.Malformed msg ->
            Error (Printf.sprintf "%s: bad envelope: %s" path msg)))

(* --- run checkpoints ---------------------------------------------------------- *)

type checkpoint = {
  ck_model : string;
  ck_mode : string;
  ck_core : int;
  ck_next_layer : int;
  ck_last_finish : Gem_sim.Time.cycles;
  ck_records : Runtime.layer_record list;
  ck_soc : J.t;
}

let all_classes =
  [ Layer.Class_conv; Layer.Class_depthwise; Layer.Class_matmul;
    Layer.Class_resadd; Layer.Class_pool; Layer.Class_elementwise ]

let klass_of_name s =
  match List.find_opt (fun k -> Layer.class_name k = s) all_classes with
  | Some k -> k
  | None -> Snap.fail "unknown layer class %S" s

let record_to_json (r : Runtime.layer_record) =
  J.Obj
    [ ("name", J.String r.Runtime.lr_name);
      ("class", J.String (Layer.class_name r.Runtime.lr_class));
      ("cycles", J.Int r.Runtime.lr_cycles);
      ("macs", J.Int r.Runtime.lr_macs) ]

let record_of_json j =
  {
    Runtime.lr_name = Snap.get_str "name" j;
    lr_class = klass_of_name (Snap.get_str "class" j);
    lr_cycles = Snap.get_int "cycles" j;
    lr_macs = Snap.get_int "macs" j;
  }

let checkpoint_to_json ck =
  J.Obj
    [ ("model", J.String ck.ck_model);
      ("mode", J.String ck.ck_mode);
      ("core", J.Int ck.ck_core);
      ("next_layer", J.Int ck.ck_next_layer);
      ("last_finish", J.Int ck.ck_last_finish);
      ("records", J.List (List.map record_to_json ck.ck_records));
      ("soc", ck.ck_soc) ]

let checkpoint_of_json j =
  try
    Ok
      {
        ck_model = Snap.get_str "model" j;
        ck_mode = Snap.get_str "mode" j;
        ck_core = Snap.get_int "core" j;
        ck_next_layer = Snap.get_int "next_layer" j;
        ck_last_finish = Snap.get_int "last_finish" j;
        ck_records = List.map record_of_json (Snap.get_list "records" j);
        ck_soc = Snap.member "soc" j;
      }
  with Snap.Malformed msg -> Error msg

let save_checkpoint ~path ck =
  let meta =
    [ ("model", J.String ck.ck_model);
      ("mode", J.String ck.ck_mode);
      ("layers_done", J.Int ck.ck_next_layer);
      ("cycle", J.Int ck.ck_last_finish) ]
  in
  save ~path ~meta ~payload:(checkpoint_to_json ck)

let load_checkpoint ~path =
  match load ~path with
  | Error _ as e -> e
  | Ok (_meta, payload) -> checkpoint_of_json payload

(* --- resilient run driver ------------------------------------------------------ *)

type outcome = {
  o_result : Runtime.result;
  o_checkpoints : int;
  o_replays : int;
  o_resumed_at : int option;
}

(* Recovery replays must not restore the injection RNG cursors exactly:
   the very next roll would re-trip the very fault we are recovering
   from, forever. Re-arm with an attempt-salted seed — still fully
   deterministic (attempt k of any run draws the same plan), but a
   different draw sequence than the one that trapped. *)
let salt_injection soc ~attempt =
  let dma = Gemmini.Controller.dma (Soc.controller (Soc.core soc 0)) in
  match Gemmini.Dma.inject dma with
  | None -> ()
  | Some plan ->
      Soc.arm_injection soc
        ~seed:(Gem_sim.Inject.seed plan + (attempt * 7919))
        ~rate:(Gem_sim.Inject.rate plan)

let run ?(policy = Runtime.Abort) ?watchdog ?inject ?checkpoint_every
    ?checkpoint_out ?restore ?(max_replays = 3) ~config ~core model ~mode =
  let model_name = model.Layer.model_name in
  let mode_desc = Runtime.mode_desc mode in
  (match restore with
  | None -> ()
  | Some ck ->
      if ck.ck_model <> model_name then
        invalid_arg
          (Printf.sprintf "Persist.run: checkpoint is of %S, not %S"
             ck.ck_model model_name);
      if ck.ck_mode <> mode_desc then
        invalid_arg
          (Printf.sprintf "Persist.run: checkpoint mode %S, run mode %S"
             ck.ck_mode mode_desc);
      if ck.ck_core <> core then
        invalid_arg
          (Printf.sprintf "Persist.run: checkpoint core %d, run core %d"
             ck.ck_core core));
  (match checkpoint_every with
  | Some n when n <= 0 ->
      invalid_arg "Persist.run: checkpoint-every must be positive"
  | _ -> ());
  (* The most recent quiesced state, shared across replays. *)
  let latest = ref restore in
  let checkpoints = ref 0 in
  let replays = ref 0 in
  let rec attempt ~salt =
    let from = !latest in
    let soc = Soc.create config in
    let prepare _core =
      match from with
      | None -> (
          match inject with
          | Some (seed, rate) ->
              Soc.arm_injection soc ~seed:(seed + (salt * 7919)) ~rate
          | None -> ())
      | Some ck ->
          (match Soc.restore soc ck.ck_soc with
          | () -> ()
          | exception Snap.Malformed msg ->
              invalid_arg
                (Printf.sprintf
                   "Persist.run: checkpoint does not fit this SoC: %s" msg));
          if salt > 0 then salt_injection soc ~attempt:salt
    in
    let start_layer = match from with None -> 0 | Some ck -> ck.ck_next_layer in
    let resume =
      Option.map (fun ck -> (ck.ck_records, ck.ck_last_finish)) from
    in
    let on_layer ~layer ~records ~finish =
      match checkpoint_every with
      | Some n when (layer + 1) mod n = 0 ->
          let ck =
            {
              ck_model = model_name;
              ck_mode = mode_desc;
              ck_core = core;
              ck_next_layer = layer + 1;
              ck_last_finish = finish;
              ck_records = records;
              ck_soc = Soc.snapshot soc;
            }
          in
          latest := Some ck;
          incr checkpoints;
          Option.iter (fun path -> save_checkpoint ~path ck) checkpoint_out
      | _ -> ()
    in
    try
      Runtime.run ~policy ?watchdog ~prepare ~start_layer ?resume ~on_layer
        soc ~core model ~mode
    with
    | Fault.Trap _ when policy = Runtime.Resume_checkpoint
                        && !replays < max_replays ->
        incr replays;
        attempt ~salt:!replays
  in
  let result = attempt ~salt:0 in
  {
    o_result = result;
    o_checkpoints = !checkpoints;
    o_replays = !replays;
    o_resumed_at = Option.map (fun ck -> ck.ck_next_layer) restore;
  }
