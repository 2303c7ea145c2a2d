module Stats = Gem_util.Stats
module J = Gem_util.Jsonx

(* A registry is a flat namespace of metric sources sampled once, at
   snapshot time. Pull sources (closures over live components) keep
   registration off the simulation hot path: registering costs one list
   cell, and nothing is read until the run is over. *)

type source =
  | Const_int of int
  | Const_float of float
  | Pull_int of (unit -> int)
  | Counter of Stats.Counter.t
  | Hist of Stats.Histogram.t
  | Ser of Stats.Series.t
  | Ser_total of Stats.Series.t

type t = {
  mutable items : (string * source) list; (* reversed registration order *)
  names : (string, unit) Hashtbl.t;
}

let create () = { items = []; names = Hashtbl.create 32 }

let register t name src =
  if name = "" then invalid_arg "Metrics.register: empty name";
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Metrics.register: duplicate metric %S" name);
  Hashtbl.replace t.names name ();
  t.items <- (name, src) :: t.items

let int t name v = register t name (Const_int v)
let float t name v = register t name (Const_float v)
let pull_int t name f = register t name (Pull_int f)

let counter t name =
  let c = Stats.Counter.create name in
  register t name (Counter c);
  c

let histogram t name h = register t name (Hist h)
let series t name s = register t name (Ser s)
let series_total t name s = register t name (Ser_total s)
let mem t name = Hashtbl.mem t.names name
let size t = List.length t.items

(* --- snapshot ------------------------------------------------------------ *)

(* Scalars: one row per metric, histograms expanded into
   .count/.p50/.p95/.p99/.max sub-rows. Sorted by name so the snapshot
   is deterministic regardless of registration order. *)

let hist_rows name h =
  let s = Stats.Histogram.summary h in
  [
    (name ^ ".count", J.Int (Stats.Histogram.count h));
    (name ^ ".p50", J.Float s.Stats.Histogram.p50);
    (name ^ ".p95", J.Float s.Stats.Histogram.p95);
    (name ^ ".p99", J.Float s.Stats.Histogram.p99);
    (name ^ ".max", J.Float s.Stats.Histogram.max);
  ]

let scalar_rows t =
  let rows =
    List.concat_map
      (fun (name, src) ->
        match src with
        | Const_int v -> [ (name, J.Int v) ]
        | Const_float v -> [ (name, J.Float v) ]
        | Pull_int f -> [ (name, J.Int (f ())) ]
        | Counter c -> [ (name, J.Int (Stats.Counter.get c)) ]
        | Hist h -> hist_rows name h
        | Ser _ | Ser_total _ -> [])
      (List.rev t.items)
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

let series_rows t =
  List.filter_map
    (fun (name, src) ->
      match src with
      | Ser s -> Some (name, Stats.Series.windows s)
      | Ser_total s ->
          Some
            ( name,
              Array.map (fun (t, sum, _) -> (t, sum)) (Stats.Series.window_totals s)
            )
      | _ -> None)
    (List.rev t.items)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  J.Obj
    [
      ("schema", J.Int 1);
      ("scalars", J.Obj (scalar_rows t));
      ( "series",
        J.Obj
          (List.map
             (fun (name, windows) ->
               ( name,
                 J.List
                   (Array.to_list
                      (Array.map
                         (fun (time, v) -> J.List [ J.Float time; J.Float v ])
                         windows)) ))
             (series_rows t)) );
    ]

(* CSV: a single long-format table. Scalars leave the time column empty;
   series emit one row per window. Floats print with %.17g (exact
   round-trip), matching the Jsonx emitter. *)
let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "metric,time,value\n";
  let value = function
    | J.Int n -> string_of_int n
    | J.Float f -> Printf.sprintf "%.17g" f
    | j -> J.to_string j
  in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "%s,,%s\n" name (value v)))
    (scalar_rows t);
  List.iter
    (fun (name, windows) ->
      Array.iter
        (fun (time, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%.17g,%.17g\n" name time v))
        windows)
    (series_rows t);
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".csv" then
        output_string oc (to_csv t)
      else begin
        output_string oc (J.to_string ~pretty:true (to_json t));
        output_char oc '\n'
      end)
