(* The repository's benchmark. Runs one named workload with a seed for a
   given number of seconds, checks the simulated outputs, and prints as
   its last line one JSON object with every metric BENCHMARK.json
   declares: the end-to-end metrics, or with --trace 1 the per-layer
   ones. Run from the repository root:

     dune exec perfbench/bench.exe -- --workload infer-1core --seed 1 \
       --seconds 20 --trace 0 *)

module J = Gem_util.Jsonx

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace {0|1}\n"
    (String.concat "|" (List.map fst Workloads.all));
  exit 2

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  | text -> (
      match J.of_string text with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "perfbench: %s: %s\n" path e;
          exit 2)

(* (name, unit) of every metric in one BENCHMARK.json section. *)
let declared spec section =
  match Option.bind (J.member section spec) J.to_list with
  | None ->
      Printf.eprintf "perfbench: BENCHMARK.json has no %s list\n" section;
      exit 2
  | Some items ->
      List.map
        (fun m ->
          match
            ( Option.bind (J.member "name" m) J.to_str,
              Option.bind (J.member "unit" m) J.to_str )
          with
          | Some n, Some u -> (n, u)
          | _ ->
              Printf.eprintf "perfbench: malformed metric in %s\n" section;
              exit 2)
        items

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", int seed, "N input seed");
      ("--seconds", int seconds, "S seconds to measure");
      ("--trace", int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun _ -> usage ())
    "bench.exe";
  let run =
    match (List.assoc_opt !workload Workloads.all, !seed, !seconds, !trace) with
    | Some run, Some _, Some s, Some (0 | 1) when s > 0 -> run
    | _ -> usage ()
  in
  let seed = Option.get !seed and trace = !trace = Some 1 in
  let spec = read_json "BENCHMARK.json" in
  let expected = read_json (Filename.concat "perfbench" "expected.json") in
  let metrics = declared spec (if trace then "per_layer" else "end_to_end") in
  let default_seed =
    Option.bind (J.member "default_seed" expected) J.to_int = Some seed
  in
  let root = ".perfbench" in
  let work = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Unix.mkdir work 0o755;
  Printf.printf "host %s\n%!"
    (J.to_string
       (J.Obj
          [
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("calibration_ms", J.Float (Reference.time () *. 1e3));
          ]));
  let ctx =
    {
      Workloads.seed;
      seconds = float_of_int (Option.get !seconds);
      scratch = work;
      expected;
      default_seed;
      spans = Spans.create ();
      acc = Hashtbl.create 8;
      attempted = 0;
      failed = 0;
      setup_ok = true;
    }
  in
  let values =
    Fun.protect
      ~finally:(fun () -> Workloads.remove_tree work)
      (fun () -> run ctx ~trace)
  in
  if trace then
    Spans.write_file ctx.Workloads.spans
      (Filename.concat root (Printf.sprintf "spans-%s-seed%d.json" !workload seed));
  let undeclared = List.filter (fun (k, _) -> not (List.mem_assoc k metrics)) values in
  List.iter (fun (k, _) -> prerr_endline ("perfbench: undeclared metric " ^ k)) undeclared;
  let missing =
    if trace then []
    else List.filter (fun (k, _) -> not (List.mem_assoc k values)) metrics
  in
  List.iter (fun (k, _) -> prerr_endline ("perfbench: missing metric " ^ k)) missing;
  let correct =
    ctx.Workloads.failed = 0 && ctx.Workloads.setup_ok && undeclared = [] && missing = []
  in
  let value k = Option.value ~default:0. (List.assoc_opt k values) in
  let number v = if Float.is_finite v then J.Float v else J.Float 0. in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int ctx.Workloads.attempted);
            ("failed", J.Int ctx.Workloads.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, u) ->
                     (k, J.Obj [ ("value", number (value k)); ("unit", J.String u) ]))
                   metrics) );
          ]))
