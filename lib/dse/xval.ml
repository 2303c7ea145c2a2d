module J = Gem_util.Jsonx
module Runtime = Gem_sw.Runtime
module Persist = Gem_persist.Persist

(* --- report ------------------------------------------------------------------- *)

type layer_error = {
  xl_name : string;
  xl_class : string;
  xl_cycle : int;
  xl_analytic : int;
  xl_rel_err : float;
}

type network_report = {
  xn_model : string;
  xn_scale : int;
  xn_cycle_total : int;
  xn_analytic_total : int;
  xn_rel_err : float;  (** signed: (analytic - cycle) / cycle *)
  xn_cycle_wall_s : float;
  xn_analytic_wall_s : float;
  xn_speedup : float;
  xn_layers : layer_error list;
}

type report = {
  x_scale : int;
  x_networks : network_report list;
  x_max_abs_err : float;
  x_mean_abs_err : float;
  x_min_speedup : float;
}

let rel_err ~cycle ~analytic =
  if cycle = 0 then if analytic = 0 then 0. else infinity
  else float_of_int (analytic - cycle) /. float_of_int cycle

(* --- validation run ----------------------------------------------------------- *)

let resolve_model ~scale name =
  match Gem_dnn.Model_zoo.find name with
  | None -> invalid_arg (Printf.sprintf "Gem_dse.Xval: unknown model %S" name)
  | Some m ->
      if scale = 1 then m else Gem_dnn.Model_zoo.scale_model ~factor:scale m

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let validate_model ?(config = Gem_soc.Soc_config.default)
    ?(mode = Runtime.Accel { im2col_on_accel = true }) ~scale name =
  let model = resolve_model ~scale name in
  let run backend () =
    (Persist.run { Persist.default with backend; config; jobs = [| (model, mode) |] })
      .Persist.o_results
  in
  let cycle_r, cycle_wall = timed (run Gem_sw.Backend.Cycle) in
  (* One analytic run takes about 0.1 ms, so one host hiccup could decide
     the speed gate: its wall is the median of five calls, which must all
     return the same result. *)
  let ana = List.init 5 (fun _ -> timed (run Gem_sw.Backend.Analytic)) in
  let ana_r = fst (List.hd ana) in
  if List.exists (fun (r, _) -> r <> ana_r) ana then
    invalid_arg "Gem_dse.Xval: analytic runs of one model disagree";
  let ana_wall = List.nth (List.sort Float.compare (List.map snd ana)) 2 in
  let cycle = cycle_r.(0) and ana = ana_r.(0) in
  let layers =
    (* Both backends walk the same lowering, so the layer lists align
       one-to-one; a mismatch is a seam bug worth failing loudly on. *)
    try
      List.map2
        (fun (c : Runtime.layer_record) (a : Runtime.layer_record) ->
          if c.Runtime.lr_name <> a.Runtime.lr_name then
            invalid_arg
              (Printf.sprintf "Gem_dse.Xval: layer mismatch %S vs %S"
                 c.Runtime.lr_name a.Runtime.lr_name);
          {
            xl_name = c.Runtime.lr_name;
            xl_class = Gem_dnn.Layer.class_name c.Runtime.lr_class;
            xl_cycle = c.Runtime.lr_cycles;
            xl_analytic = a.Runtime.lr_cycles;
            xl_rel_err =
              rel_err ~cycle:c.Runtime.lr_cycles ~analytic:a.Runtime.lr_cycles;
          })
        cycle.Runtime.r_layers ana.Runtime.r_layers
    with Invalid_argument _ ->
      invalid_arg "Gem_dse.Xval: backends produced different layer counts"
  in
  {
    xn_model = name;
    xn_scale = scale;
    xn_cycle_total = cycle.Runtime.r_total_cycles;
    xn_analytic_total = ana.Runtime.r_total_cycles;
    xn_rel_err =
      rel_err ~cycle:cycle.Runtime.r_total_cycles
        ~analytic:ana.Runtime.r_total_cycles;
    xn_cycle_wall_s = cycle_wall;
    xn_analytic_wall_s = ana_wall;
    xn_speedup = (if ana_wall > 0. then cycle_wall /. ana_wall else infinity);
    xn_layers = layers;
  }

let default_models = List.map (fun m -> m.Gem_dnn.Layer.model_name) Gem_dnn.Model_zoo.all

let validate ?config ?mode ?(models = default_models) ?(scale = 1) () =
  let networks = List.map (validate_model ?config ?mode ~scale) models in
  let abs_errs = List.map (fun n -> Float.abs n.xn_rel_err) networks in
  {
    x_scale = scale;
    x_networks = networks;
    x_max_abs_err = List.fold_left Float.max 0. abs_errs;
    x_mean_abs_err =
      (match abs_errs with
      | [] -> 0.
      | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l));
    x_min_speedup =
      List.fold_left
        (fun acc n -> Float.min acc n.xn_speedup)
        infinity networks;
  }

(* --- JSON --------------------------------------------------------------------- *)

let layer_to_json l =
  J.Obj
    [
      ("name", J.String l.xl_name);
      ("class", J.String l.xl_class);
      ("cycle", J.Int l.xl_cycle);
      ("analytic", J.Int l.xl_analytic);
      ("rel_err", J.Float l.xl_rel_err);
    ]

let network_to_json n =
  J.Obj
    [
      ("model", J.String n.xn_model);
      ("scale", J.Int n.xn_scale);
      ("cycle_total", J.Int n.xn_cycle_total);
      ("analytic_total", J.Int n.xn_analytic_total);
      ("rel_err", J.Float n.xn_rel_err);
      ("cycle_wall_s", J.Float n.xn_cycle_wall_s);
      ("analytic_wall_s", J.Float n.xn_analytic_wall_s);
      ("speedup", J.Float n.xn_speedup);
      ("layers", J.List (List.map layer_to_json n.xn_layers));
    ]

let report_to_json r =
  J.Obj
    [
      ("scale", J.Int r.x_scale);
      ("max_abs_err", J.Float r.x_max_abs_err);
      ("mean_abs_err", J.Float r.x_mean_abs_err);
      ("min_speedup", J.Float r.x_min_speedup);
      ("networks", J.List (List.map network_to_json r.x_networks));
    ]

(* --- error budget ------------------------------------------------------------- *)

type budget = {
  b_default_abs_err : float;
  b_per_model : (string * float) list;
  b_min_speedup : float;
}

let budget_of_json json =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (J.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "budget: bad or missing field %S" name)
  in
  let* default_abs = field "default_abs_err" J.to_float in
  let* min_speedup = field "min_speedup" J.to_float in
  let* per_model =
    match J.member "per_model" json with
    | None -> Ok []
    | Some o -> (
        match J.to_obj o with
        | None -> Error "budget: per_model is not an object"
        | Some pairs ->
            let conv =
              List.filter_map
                (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v))
                pairs
            in
            if List.length conv = List.length pairs then Ok conv
            else Error "budget: non-float per_model entry")
  in
  Ok
    {
      b_default_abs_err = default_abs;
      b_per_model = per_model;
      b_min_speedup = min_speedup;
    }

let load_budget path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let s = really_input_string ic (in_channel_length ic) in
      Result.bind (J.of_string s) budget_of_json)

let model_budget b name =
  Option.value ~default:b.b_default_abs_err (List.assoc_opt name b.b_per_model)

let check report budget =
  let failures =
    List.filter_map
      (fun n ->
        let allowed = model_budget budget n.xn_model in
        if Float.abs n.xn_rel_err > allowed then
          Some
            (Printf.sprintf "%s: |rel err| %.2f%% exceeds budget %.2f%%"
               n.xn_model
               (100. *. Float.abs n.xn_rel_err)
               (100. *. allowed))
        else None)
      report.x_networks
  in
  let failures =
    if report.x_min_speedup < budget.b_min_speedup then
      failures
      @ [
          Printf.sprintf "min speedup %.0fx below required %.0fx"
            report.x_min_speedup budget.b_min_speedup;
        ]
    else failures
  in
  if failures = [] then Ok () else Error failures
