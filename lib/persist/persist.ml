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

(* --- the run driver ------------------------------------------------------------ *)

type options = {
  backend : Gem_sw.Backend.kind;
  config : Gem_soc.Soc_config.t;
  jobs : (Layer.model * Runtime.mode) array;
  policy : Runtime.policy;
  watchdog : int option;
  inject : (int * float) option;
  checkpoint_every : int option;
  checkpoint_out : string option;
  restore : checkpoint option;
  max_replays : int;
}

let default =
  { backend = Gem_sw.Backend.Cycle; config = Gem_soc.Soc_config.default;
    jobs = [||]; policy = Runtime.Abort; watchdog = None; inject = None;
    checkpoint_every = None; checkpoint_out = None; restore = None;
    max_replays = 3 }

type outcome = {
  o_results : Runtime.result array;
  o_checkpoints : int;
  o_replays : int;
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

(* Every combination the driver refuses, before anything is built. *)
let check o =
  let fail fmt = Printf.ksprintf invalid_arg ("Persist.run: " ^^ fmt) in
  let persisting =
    o.checkpoint_every <> None || o.checkpoint_out <> None
    || o.restore <> None || o.policy = Runtime.Resume_checkpoint
  in
  if o.backend = Gem_sw.Backend.Analytic && (persisting || o.inject <> None) then
    fail
      "checkpoint/restore and fault injection need the cycle backend (the \
       analytic estimator has no simulation state)";
  if persisting && Array.length o.jobs > 1 then
    fail
      "checkpoint/restore runs one job (a layer fence quiesces the SoC only \
       when one core runs)";
  if Option.fold ~none:false ~some:(fun n -> n <= 0) o.checkpoint_every then
    fail "checkpoint-every must be positive";
  match (o.restore, o.jobs) with
  | Some ck, [| (model, mode) |] ->
      let model_name = model.Layer.model_name in
      let mode_desc = Runtime.mode_desc mode in
      if ck.ck_model <> model_name then
        fail "checkpoint is of %S, not %S" ck.ck_model model_name;
      if ck.ck_mode <> mode_desc then
        fail "checkpoint mode %S, run mode %S" ck.ck_mode mode_desc;
      if ck.ck_core <> 0 then fail "checkpoint core %d, run core 0" ck.ck_core
  | _ -> ()

let run ?(attach = ignore) o =
  (* The request checks the job/core shape for both backends. *)
  let rq =
    Gem_sw.Backend.request ~policy:o.policy ?watchdog:o.watchdog
      ~config:o.config o.jobs
  in
  check o;
  (* The most recent quiesced state, shared across replays. *)
  let latest = ref o.restore in
  let checkpoints = ref 0 in
  let replays = ref 0 in
  let rec attempt ~salt =
    let from = !latest in
    let soc = Soc.create o.config in
    attach soc;
    let prepare () =
      match from with
      | None -> (
          match o.inject with
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
    (* Only a single job checkpoints ([check]), on core 0. *)
    let on_layer =
      Option.map
        (fun n ~layer ~records ~finish ->
          if (layer + 1) mod n = 0 then begin
            let model, mode = o.jobs.(0) in
            let ck =
              {
                ck_model = model.Layer.model_name;
                ck_mode = Runtime.mode_desc mode;
                ck_core = 0;
                ck_next_layer = layer + 1;
                ck_last_finish = finish;
                ck_records = records;
                ck_soc = Soc.snapshot soc;
              }
            in
            latest := Some ck;
            incr checkpoints;
            Option.iter (fun path -> save_checkpoint ~path ck) o.checkpoint_out
          end)
        o.checkpoint_every
    in
    try
      Runtime.run_parallel ~policy:o.policy ?watchdog:o.watchdog ~prepare
        ~start_layer ?resume ?on_layer soc o.jobs
    with
    | Fault.Trap _ when o.policy = Runtime.Resume_checkpoint
                        && !replays < o.max_replays ->
        incr replays;
        attempt ~salt:!replays
  in
  let results =
    match o.backend with
    | Gem_sw.Backend.Analytic -> Gem_sw.Backend_analytic.run rq
    | Gem_sw.Backend.Cycle -> attempt ~salt:0
  in
  { o_results = results; o_checkpoints = !checkpoints; o_replays = !replays }
