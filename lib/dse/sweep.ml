type axis = {
  axis_name : string;
  axis_values : (string * (Point.t -> Point.t)) list;
}

let axis axis_name axis_values = { axis_name; axis_values }

let ints axis_name apply values =
  {
    axis_name;
    axis_values = List.map (fun v -> (string_of_int v, apply v)) values;
  }

let backends ?(kinds = Gem_sw.Backend.all_kinds) () =
  {
    axis_name = "backend";
    axis_values =
      List.map
        (fun k -> (Gem_sw.Backend.kind_name k, Point.with_backend k))
        kinds;
  }

let cores counts =
  {
    axis_name = "cores";
    axis_values =
      List.map
        (fun n ->
          ( string_of_int n,
            fun (p : Point.t) ->
              match p.Point.soc.Gem_soc.Soc_config.cores with
              | [] -> invalid_arg "Gem_dse.Sweep.cores: SoC has no cores"
              | proto :: _ ->
                  {
                    p with
                    Point.soc =
                      Gem_soc.Soc_config.with_cores
                        (List.init n (fun _ -> proto))
                        p.Point.soc;
                  } ))
        counts;
  }

let serve_rates rates =
  {
    axis_name = "arrival_rps";
    axis_values =
      List.map
        (fun r ->
          ( Printf.sprintf "%g" r,
            fun p ->
              Point.with_serve
                {
                  (Point.serve_or_default p) with
                  Point.ss_arrival = Printf.sprintf "poisson:%g" r;
                }
                p ))
        rates;
  }

let cartesian ?(sep = "/") ~base axes =
  let rec expand labels point = function
    | [] ->
        let label =
          let value_part = String.concat sep (List.rev labels) in
          if point.Point.label = "" then value_part
          else if value_part = "" then point.Point.label
          else point.Point.label ^ sep ^ value_part
        in
        [ { point with Point.label } ]
    | ax :: rest ->
        List.concat_map
          (fun (vl, f) -> expand (vl :: labels) (f point) rest)
          ax.axis_values
  in
  Array.of_list (expand [] base axes)

let points l = Array.of_list l
