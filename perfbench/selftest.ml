(* The benchmark's own tests. Run from the repository root:

     dune exec perfbench/selftest.exe [-- WORKLOAD...]

   Checks that every declared metric is well named and carries a unit,
   that equal seeds generate byte-identical inputs, and, by running
   bench.exe briefly on each workload (every one unless named), that
   each run is correct, emits exactly the declared metrics, and repeats
   every count-sourced metric exactly across two traced runs. Takes a
   few minutes. *)

module J = Gem_util.Jsonx

let failures = ref 0

let expect cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        print_endline ("FAIL " ^ msg)
      end)
    fmt

let field key conv j = Option.bind (J.member key j) conv

let metric_list spec section =
  Option.value ~default:[] (field section J.to_list spec)
  |> List.map (fun m ->
         ( Option.value ~default:"" (field "name" J.to_str m),
           Option.value ~default:"" (field "unit" J.to_str m) ))

let well_named name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

(* Units of metrics read from counters, which must repeat exactly. *)
let count_units = [ "count"; "cycles"; "B"; "ratio" ]

(* Runs bench.exe and returns the JSON object on its last stdout line. *)
let bench args =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "bench.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  expect (status = Unix.WEXITED 0) "bench.exe %s exited abnormally" (String.concat " " args);
  let lines = String.split_on_char '\n' (String.trim out) in
  match J.of_string (List.nth lines (List.length lines - 1)) with
  | Ok j -> j
  | Error e -> failwith ("bench.exe printed no result: " ^ e)

let metrics_of result =
  Option.value ~default:[] (field "metrics" J.to_obj result)
  |> List.map (fun (k, v) -> (k, Option.value ~default:nan (field "value" J.to_float v)))

let run_workload declared_e2e declared_layers w =
  let args trace = [ "--workload"; w; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace ] in
  let check_run trace declared result =
    expect (field "correct" J.to_bool result = Some true) "%s --trace %s: not correct" w trace;
    expect (field "failed" J.to_int result = Some 0) "%s --trace %s: failed operations" w trace;
    let names = List.map fst (metrics_of result) in
    expect (names = List.map fst declared) "%s --trace %s: metrics differ from BENCHMARK.json" w
      trace
  in
  let e2e = bench (args "0") in
  check_run "0" declared_e2e e2e;
  List.iter
    (fun (k, v) -> expect (v > 0.) "%s: end-to-end metric %s is %g" w k v)
    (metrics_of e2e);
  let a = bench (args "1") and b = bench (args "1") in
  check_run "1" declared_layers a;
  check_run "1" declared_layers b;
  let mb = metrics_of b in
  List.iter
    (fun (k, u) ->
      if List.mem u count_units then
        let va = List.assoc k (metrics_of a) and vb = List.assoc k mb in
        expect (va = vb) "%s: count %s differs across runs (%.17g vs %.17g)" w k va vb)
    declared_layers;
  metrics_of a

let () =
  let spec =
    match J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let e2e = metric_list spec "end_to_end" and layers = metric_list spec "per_layer" in
  let all = e2e @ layers in
  List.iter
    (fun (name, unit) ->
      expect (well_named name) "metric name %S is not [A-Za-z0-9_.-]+" name;
      expect (unit <> "") "metric %s has no unit" name)
    all;
  expect
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all)
    "metric names repeat";
  expect
    (Inputs.arrivals_text (Inputs.arrivals ~seed:7 ~n:16)
     = Inputs.arrivals_text (Inputs.arrivals ~seed:7 ~n:16))
    "arrivals differ for one seed";
  expect
    (Inputs.designs_text (Inputs.designs ~seed:7 ~per_stratum:8)
     = Inputs.designs_text (Inputs.designs ~seed:7 ~per_stratum:8))
    "sweep points differ for one seed";
  expect
    (Inputs.designs_text (Inputs.designs ~seed:7 ~per_stratum:8)
     <> Inputs.designs_text (Inputs.designs ~seed:8 ~per_stratum:8))
    "sweep points ignore the seed";
  let workloads =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst Workloads.all
    | ws -> ws
  in
  let traced = List.map (run_workload e2e layers) workloads in
  (* A tripwire that reads 0 on a healthy run: the collector's engine
     ring is never on, so it drops nothing. *)
  let zero_ok = [ "export.dropped" ] in
  if List.length workloads = List.length Workloads.all then
    List.iter
      (fun (k, _) ->
        expect
          (List.mem k zero_ok || List.exists (fun m -> List.assoc k m <> 0.) traced)
          "per-layer metric %s is 0 on every workload" k)
      layers;
  if !failures = 0 then print_endline "perfbench selftest: ok"
  else begin
    Printf.printf "perfbench selftest: %d failures\n" !failures;
    exit 1
  end
