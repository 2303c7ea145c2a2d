(* The bench-regression gate: diffs the cycle counts in a fresh
   BENCH_results.json (written by `bench/main.exe -- quick`) against the
   committed BENCH_baseline.json and fails on ANY drift — a changed count,
   a metric that disappeared, or a new metric not yet in the baseline. It
   also gates the hot-path allocation: any [*.bytes_per_op] above its
   baseline fails.

     dune exec bench/check_regression.exe
     dune exec bench/check_regression.exe -- baseline.json results.json

   Cycle counts in this repository are deterministic, so an exact match is
   the correct bar; allocation per hot-path op is deterministic too, and
   may only go down. Wall-clock figures are perfbench's, not this gate's.
   When a simulator change legitimately moves the numbers, regenerate the
   baseline (`dune exec bench/main.exe -- quick && cp BENCH_results.json
   BENCH_baseline.json`) and commit it alongside the change. *)

let fail_count = ref 0

let problem fmt =
  Printf.ksprintf
    (fun s ->
      incr fail_count;
      Printf.printf "FAIL %s\n" s)
    fmt

let malformed path fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "error: %s: %s\n" path s;
      exit 2)
    fmt

let load path =
  let ic =
    try open_in path
    with Sys_error e ->
      Printf.eprintf "error: cannot open %s: %s\n" path e;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Gem_util.Jsonx.of_string s with
  | Ok v -> v
  | Error e -> malformed path "invalid JSON: %s" e

let obj_field path json name =
  match Gem_util.Jsonx.member name json with
  | Some v -> v
  | None -> malformed path "no %S field" name

let int_section path json name =
  match Gem_util.Jsonx.to_obj (obj_field path json name) with
  | Some kvs ->
      List.map
        (fun (k, v) ->
          match Gem_util.Jsonx.to_int v with
          | Some n -> (k, n)
          | None -> malformed path "%s metric %S is not an integer" name k)
        kvs
  | None -> malformed path "%S is not an object" name

let metrics path json = int_section path json "metrics"

(* The serving section (schema 1 files from before lib/serve existed lack
   it) gets the same exact-match treatment as the figure metrics. *)
let serving path json =
  match Gem_util.Jsonx.member "serving" json with
  | None -> None
  | Some _ -> Some (int_section path json "serving")

let diff_section ~label base_m res_m =
  List.iter
    (fun (k, bv) ->
      match List.assoc_opt k res_m with
      | None -> problem "%s%s: in baseline but missing from results" label k
      | Some rv when rv <> bv ->
          problem "%s%s: baseline %d, got %d (%+d)" label k bv rv (rv - bv)
      | Some _ -> ())
    base_m;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k base_m) then
        problem "%s%s: new metric not in baseline (regenerate BENCH_baseline.json)"
          label k)
    res_m

let quick_flag path json =
  match Gem_util.Jsonx.to_bool (obj_field path json "quick") with
  | Some b -> b
  | None -> malformed path "\"quick\" is not a boolean"

let () =
  let baseline_path, results_path =
    match Array.to_list Sys.argv with
    | [ _ ] -> ("BENCH_baseline.json", "BENCH_results.json")
    | [ _; b ] -> (b, "BENCH_results.json")
    | [ _; b; r ] -> (b, r)
    | _ ->
        Printf.eprintf "usage: check_regression [baseline.json [results.json]]\n";
        exit 2
  in
  let baseline = load baseline_path in
  let results = load results_path in
  let bq = quick_flag baseline_path baseline in
  let rq = quick_flag results_path results in
  if bq <> rq then
    problem "quick flags differ: baseline quick=%b, results quick=%b" bq rq;
  let base_m = metrics baseline_path baseline in
  let res_m = metrics results_path results in
  diff_section ~label:"" base_m res_m;
  let serving_count =
    match (serving baseline_path baseline, serving results_path results) with
    | Some bs, Some rs ->
        diff_section ~label:"serving/" bs rs;
        List.length bs
    | None, Some rs ->
        problem
          "serving: results have a serving section but the baseline has none \
           (regenerate BENCH_baseline.json)";
        List.length rs
    | Some _, None ->
        problem "serving: baseline has a serving section but the results have none";
        0
    | None, None -> 0
  in
  (* The hotpath section holds allocation (bytes/op) per quiet-path
     benchmark, a deterministic function of the code: a bytes/op above its
     baseline — or a hot path that appeared or vanished — fails; a drop
     passes (commit the lower baseline to lock it in). *)
  let hotpath_gates =
    let floats json =
      match
        Option.bind (Gem_util.Jsonx.member "hotpath" json) Gem_util.Jsonx.to_obj
      with
      | Some kvs ->
          List.filter_map
            (fun (k, v) ->
              Option.map (fun f -> (k, f)) (Gem_util.Jsonx.to_float v))
            kvs
      | None -> []
    in
    let base_bytes = floats baseline and res_bytes = floats results in
    List.iter
      (fun (k, b) ->
        match List.assoc_opt k res_bytes with
        | None -> problem "hotpath/%s: in baseline but missing from results" k
        | Some r when r > b ->
            problem "hotpath/%s: baseline %.1f B/op, got %.1f (%+.1f)" k b r
              (r -. b)
        | Some _ -> ())
      base_bytes;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k base_bytes) then
          problem
            "hotpath/%s: new allocation gate not in baseline (regenerate \
             BENCH_baseline.json)"
            k)
      res_bytes;
    List.length base_bytes
  in
  if !fail_count = 0 then (
    Printf.printf "OK: %d metrics match %s, %d hotpath allocation gates hold\n"
      (List.length base_m + serving_count)
      baseline_path hotpath_gates;
    exit 0)
  else (
    Printf.printf "%d regression(s) against %s\n" !fail_count baseline_path;
    exit 1)
