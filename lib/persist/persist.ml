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
  (* An error names [path], the file the caller asked for, not the temp. *)
  let on_path f =
    try f ()
    with Sys_error msg ->
      let n = String.length tmp + 2 in
      if String.starts_with ~prefix:(tmp ^ ": ") msg then
        raise (Sys_error (path ^ ": " ^ String.sub msg n (String.length msg - n)))
      else raise (Sys_error (path ^ ": " ^ msg))
  in
  let oc = on_path (fun () -> open_out_bin tmp) in
  (match
     (output_string oc (J.to_string envelope); output_char oc '\n')
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  on_path (fun () ->
      try Sys.rename tmp path
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e)

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
            let str key = Snap.decode Snap.string (Snap.member key env) in
            let version = str "gem_persist_version" in
            if version <> format_version then
              Error
                (Printf.sprintf "%s: format version %S, this build reads %S"
                   path version format_version)
            else begin
              let payload = Snap.member "payload" env in
              let expect = str "checksum" in
              let got = payload_checksum payload in
              if got <> expect then
                Error
                  (Printf.sprintf "%s: checksum mismatch (file %s, payload %s)"
                     path expect got)
              else
                Ok (Snap.decode (Snap.assoc Snap.json) (Snap.member "meta" env), payload)
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

let layer_class =
  Snap.map
    (fun s ->
      match List.find_opt (fun k -> Layer.class_name k = s) all_classes with
      | Some k -> k
      | None -> Snap.fail "unknown layer class %S" s)
    Layer.class_name Snap.string

let record =
  Snap.(
    obj
      ~init:(fun () ->
        { Runtime.lr_name = ""; lr_class = Layer.Class_conv; lr_cycles = 0; lr_macs = 0 })
      [ update "name" string
          (fun r -> r.Runtime.lr_name)
          (fun r lr_name -> { r with Runtime.lr_name });
        update "class" layer_class (fun r -> r.Runtime.lr_class)
          (fun r lr_class -> { r with Runtime.lr_class });
        update "cycles" int (fun r -> r.Runtime.lr_cycles)
          (fun r lr_cycles -> { r with Runtime.lr_cycles });
        update "macs" int (fun r -> r.Runtime.lr_macs)
          (fun r lr_macs -> { r with Runtime.lr_macs }) ])

let checkpoint =
  Snap.(
    obj
      ~init:(fun () ->
        { ck_model = ""; ck_mode = ""; ck_core = 0; ck_next_layer = 0;
          ck_last_finish = 0; ck_records = []; ck_soc = J.Null })
      [ update "model" string (fun ck -> ck.ck_model) (fun ck ck_model -> { ck with ck_model });
        update "mode" string (fun ck -> ck.ck_mode) (fun ck ck_mode -> { ck with ck_mode });
        update "core" int (fun ck -> ck.ck_core) (fun ck ck_core -> { ck with ck_core });
        update "next_layer" int (fun ck -> ck.ck_next_layer)
          (fun ck ck_next_layer -> { ck with ck_next_layer });
        update "last_finish" int (fun ck -> ck.ck_last_finish)
          (fun ck ck_last_finish -> { ck with ck_last_finish });
        update "records" (list record) (fun ck -> ck.ck_records)
          (fun ck ck_records -> { ck with ck_records });
        update "soc" json (fun ck -> ck.ck_soc) (fun ck ck_soc -> { ck with ck_soc }) ])

let save_checkpoint ~path ck =
  let meta =
    [ ("model", J.String ck.ck_model);
      ("mode", J.String ck.ck_mode);
      ("layers_done", J.Int ck.ck_next_layer);
      ("cycle", J.Int ck.ck_last_finish) ]
  in
  save ~path ~meta ~payload:(Snap.snapshot checkpoint ck)

let load_checkpoint ~path =
  match load ~path with
  | Error _ as e -> e
  | Ok (_meta, payload) -> (
      try Ok (Snap.decode checkpoint payload) with Snap.Malformed msg -> Error msg)

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
