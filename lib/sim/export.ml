module Stats = Gem_util.Stats
module J = Gem_util.Jsonx
module Table = Gem_util.Table

(* Per-component aggregates fed by Acquire/Transfer events. *)
type comp = {
  c_name : string;
  c_lat : Stats.Histogram.t; (* queue latency: service start - request *)
  c_busy : Stats.Series.t; (* busy cycles, attributed to the start window *)
  c_backlog : Stats.Series.t; (* outstanding occupancy: finish - request *)
  c_bytes : Stats.Series.t; (* transferred bytes per window *)
  mutable c_acquires : int;
  mutable c_transfers : int;
}

type fault_mark = {
  f_component : string;
  f_time : Time.cycles;
  f_kind : string;
  f_detail : string;
}

type t = {
  engine : Engine.t;
  window : int;
  lat_range : float;
  lat_buckets : int;
  recorder : Span.t;
  spans_on : bool;
  comps : (string, comp) Hashtbl.t;
  mutable comp_order : string list; (* first-seen, reversed *)
  mutable faults : fault_mark list; (* reversed *)
}

let comp_for t name =
  match Hashtbl.find_opt t.comps name with
  | Some c -> c
  | None ->
      let w = float_of_int t.window in
      let c =
        {
          c_name = name;
          c_lat = Stats.Histogram.create ~buckets:t.lat_buckets ~range:t.lat_range;
          c_busy = Stats.Series.create ~window:w;
          c_backlog = Stats.Series.create ~window:w;
          c_bytes = Stats.Series.create ~window:w;
          c_acquires = 0;
          c_transfers = 0;
        }
      in
      Hashtbl.add t.comps name c;
      t.comp_order <- name :: t.comp_order;
      c

let on_event t (ev : Engine.event) =
  (match ev with
  | Engine.Acquire { component; time; start; finish } ->
      let c = comp_for t component in
      c.c_acquires <- c.c_acquires + 1;
      Stats.Histogram.add c.c_lat (float_of_int (start - time));
      Stats.Series.add c.c_busy ~time:(float_of_int start)
        (float_of_int (finish - start));
      Stats.Series.add c.c_backlog ~time:(float_of_int time)
        (float_of_int (finish - time))
  | Engine.Transfer { component; time; bytes; _ } ->
      let c = comp_for t component in
      c.c_transfers <- c.c_transfers + 1;
      Stats.Series.add c.c_bytes ~time:(float_of_int time) (float_of_int bytes)
  | Engine.Fault { component; time; kind; detail } ->
      t.faults <-
        { f_component = component; f_time = time; f_kind = kind; f_detail = detail }
        :: t.faults
  | Engine.Span_open _ | Engine.Span_close _ | Engine.Translate _
  | Engine.Note _ ->
      ());
  if t.spans_on then Span.on_event t.recorder ev

let attach ?(window = 65536) ?(lat_range = 4096.) ?(lat_buckets = 64)
    ?(spans = true) ?acquire_spans engine =
  if window <= 0 then invalid_arg "Export.attach: window <= 0";
  let t =
    {
      engine;
      window;
      lat_range;
      lat_buckets;
      recorder = Span.create ?acquire_spans ();
      spans_on = spans;
      comps = Hashtbl.create 16;
      comp_order = [];
      faults = [];
    }
  in
  Engine.add_sink engine (on_event t);
  t

let recorder t = t.recorder
let engine t = t.engine
let finalize t = Span.finalize t.recorder ~horizon:(Engine.now t.engine)

(* --- chrome encoder ---------------------------------------------------------

   The one Chrome Trace Event writer behind both exporters. The file is one
   big JSON array; each record is built as a Jsonx value and printed on its
   own line, so output stays deterministic and the whole file still parses
   as standard JSON. One "process" per core scope (shared components form
   the "soc" process), one "thread" per component; a track's metadata rows
   are written right before the first record that needs them. *)

let scope_of_name name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> "soc"

module Chrome = struct
  type t = {
    out : string -> unit;
    mutable first : bool;
    mutable records : int;
    pids : (string, int) Hashtbl.t; (* scope -> pid *)
    tid_counts : (string, int) Hashtbl.t; (* scope -> tids handed out *)
    tracks : (string, int * int) Hashtbl.t; (* component -> (pid, tid) *)
  }

  let create out =
    out "[\n";
    {
      out;
      first = true;
      records = 0;
      pids = Hashtbl.create 8;
      tid_counts = Hashtbl.create 8;
      tracks = Hashtbl.create 32;
    }

  let record t j =
    if t.first then t.first <- false else t.out ",\n";
    t.out (J.to_string j);
    t.records <- t.records + 1

  let meta t name ids arg =
    record t
      (J.Obj
         ((("ph", J.String "M") :: ("name", J.String name) :: ids)
         @ [ ("args", J.Obj [ arg ]) ]))

  let track t component =
    match Hashtbl.find_opt t.tracks component with
    | Some pt -> pt
    | None ->
        let scope = scope_of_name component in
        let pid =
          match Hashtbl.find_opt t.pids scope with
          | Some p -> p
          | None ->
              let p = Hashtbl.length t.pids + 1 in
              Hashtbl.add t.pids scope p;
              let ids = [ ("pid", J.Int p) ] in
              meta t "process_name" ids ("name", J.String scope);
              meta t "process_sort_index" ids ("sort_index", J.Int p);
              p
        in
        let tid =
          Option.value ~default:0 (Hashtbl.find_opt t.tid_counts scope) + 1
        in
        Hashtbl.replace t.tid_counts scope tid;
        let ids = [ ("pid", J.Int pid); ("tid", J.Int tid) ] in
        meta t "thread_name" ids ("name", J.String component);
        meta t "thread_sort_index" ids ("sort_index", J.Int tid);
        Hashtbl.add t.tracks component (pid, tid);
        (pid, tid)

  (* Network and layer spans obey sync-slice stack discipline on their
     track and render as one X slice, written at close when the duration
     is known. Kernels, commands and DMA bursts overlap their siblings
     (issue-side pipelining), so they render as async b/e pairs: "b" at
     open, "e" at close. *)
  let is_sync cat = cat = "network" || cat = "layer" || cat = "acquire"

  let span_args (s : Span.span) =
    ("span", J.Int s.Span.id)
    :: ("parent", J.Int s.Span.parent)
    :: List.map (fun (k, v) -> (k, J.String v)) s.Span.args

  let span_open t (s : Span.span) =
    if not (is_sync s.Span.cat) then begin
      let pid, tid = track t s.Span.component in
      record t
        (J.Obj
           [
             ("ph", J.String "b");
             ("name", J.String s.Span.name);
             ("cat", J.String s.Span.cat);
             ("id", J.Int s.Span.id);
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("ts", J.Int s.Span.t0);
             ("args", J.Obj (span_args s));
           ])
    end

  let span_close t (s : Span.span) =
    let pid, tid = track t s.Span.component in
    let t1 = if s.Span.t1 < 0 then s.Span.t0 else s.Span.t1 in
    if is_sync s.Span.cat then
      record t
        (J.Obj
           [
             ("ph", J.String "X");
             ("name", J.String s.Span.name);
             ("cat", J.String s.Span.cat);
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("ts", J.Int s.Span.t0);
             ("dur", J.Int (t1 - s.Span.t0));
             ("args", J.Obj (span_args s));
           ])
    else
      record t
        (J.Obj
           [
             ("ph", J.String "e");
             ("name", J.String s.Span.name);
             ("cat", J.String s.Span.cat);
             ("id", J.Int s.Span.id);
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("ts", J.Int t1);
           ])

  (* A fault is an instant event on its component's track. *)
  let fault t ~component ~time ~kind ~detail =
    let pid, tid = track t component in
    record t
      (J.Obj
         [
           ("ph", J.String "i");
           ("name", J.String kind);
           ("cat", J.String "fault");
           ("s", J.String "t");
           ("pid", J.Int pid);
           ("tid", J.Int tid);
           ("ts", J.Int time);
           ("args", J.Obj [ ("detail", J.String detail) ]);
         ])

  let counter t ~name ~pid ~ts ~key v =
    record t
      (J.Obj
         [
           ("ph", J.String "C");
           ("name", J.String name);
           ("pid", J.Int pid);
           ("ts", J.Int ts);
           ("args", J.Obj [ (key, v) ]);
         ])

  let finish t = t.out "\n]\n"
end

(* --- batch chrome export ----------------------------------------------------

   Tracks appear in engine registration order, which is construction order
   and thus deterministic; components that emitted events without
   registering (unit tests with bare engines) follow in sorted order. The
   batch writer touches every track up front so all metadata leads the
   file, then replays the recorded spans in recording order, then writes
   the counter tracks and fault instants. *)

let track_names t =
  let registered = List.map fst (Engine.components t.engine) in
  let seen = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace seen n ()) registered;
  let extra = ref [] in
  let note n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      extra := n :: !extra
    end
  in
  List.iter note (List.rev t.comp_order);
  Span.iter t.recorder (fun s -> note s.Span.component);
  registered @ List.sort compare !extra

let write_chrome t out =
  let enc = Chrome.create out in
  let names = track_names t in
  List.iter (fun name -> ignore (Chrome.track enc name)) names;
  Span.iter t.recorder (fun s ->
      Chrome.span_open enc s;
      Chrome.span_close enc s);
  (* Counter tracks: windowed utilization, outstanding occupancy and
     transferred bytes per component with activity. *)
  let w = float_of_int t.window in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.comps name with
      | None -> ()
      | Some c ->
          let pid, _ = Chrome.track enc name in
          let counter suffix ~key time v =
            Chrome.counter enc ~name:(name ^ suffix) ~pid
              ~ts:(int_of_float time) ~key v
          in
          Array.iter
            (fun (time, sum, _) ->
              counter " util %" ~key:"value" time (J.Float (100. *. sum /. w)))
            (Stats.Series.window_totals c.c_busy);
          Array.iter
            (fun (time, mean) ->
              counter " outstanding" ~key:"cycles" time (J.Float mean))
            (Stats.Series.windows c.c_backlog);
          if c.c_transfers > 0 then
            Array.iter
              (fun (time, sum, _) ->
                counter " bytes" ~key:"value" time (J.Int (int_of_float sum)))
              (Stats.Series.window_totals c.c_bytes))
    names;
  List.iter
    (fun f ->
      Chrome.fault enc ~component:f.f_component ~time:f.f_time ~kind:f.f_kind
        ~detail:f.f_detail)
    (List.rev t.faults);
  Chrome.finish enc

let chrome_string t =
  let buf = Buffer.create 65536 in
  write_chrome t (Buffer.add_string buf);
  Buffer.contents buf

let write_chrome_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_chrome t (output_string oc))

(* --- summaries ------------------------------------------------------------ *)

let latency t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.comps name with
      | Some c when c.c_acquires > 0 ->
          Some (name, c.c_acquires, Stats.Histogram.summary c.c_lat)
      | _ -> None)
    (track_names t)

(* --- text report ---------------------------------------------------------- *)

let fmt_cycles f = if Float.is_nan f then "-" else Table.fmt_f ~dec:1 f

let report t =
  let horizon = Engine.now t.engine in
  let buf = Buffer.create 4096 in
  (* Per-layer breakdown from the span tree. *)
  let layers = ref [] and kernels = Hashtbl.create 16 in
  let commands = Hashtbl.create 16 in
  (* layer id of a span: nearest ancestor with cat = "layer" *)
  let rec layer_of id =
    if id < 0 then -1
    else
      let s = Span.get t.recorder id in
      if s.Span.cat = "layer" then id else layer_of s.Span.parent
  in
  Span.iter t.recorder (fun s ->
      match s.Span.cat with
      | "layer" -> layers := s :: !layers
      | "kernel" ->
          let l = layer_of s.Span.parent in
          let prev = Option.value ~default:[] (Hashtbl.find_opt kernels l) in
          if not (List.mem s.Span.name prev) then
            Hashtbl.replace kernels l (s.Span.name :: prev)
      | "command" ->
          let l = layer_of s.Span.parent in
          Hashtbl.replace commands l
            (Option.value ~default:0 (Hashtbl.find_opt commands l) + 1)
      | _ -> ());
  let layers = List.rev !layers in
  (* Multi-core runs repeat layer names; prefix each row with its core so
     rows line up with the core-prefixed component names elsewhere. *)
  let scopes =
    List.sort_uniq compare
      (List.map (fun (s : Span.span) -> scope_of_name s.Span.component) layers)
  in
  let label (s : Span.span) =
    match scopes with
    | [] | [ _ ] -> s.Span.name
    | _ -> scope_of_name s.Span.component ^ ":" ^ s.Span.name
  in
  if layers <> [] then begin
    let tbl =
      Table.create
        ~title:
          (Printf.sprintf "Layer profile (horizon = %s cycles)"
             (Table.fmt_int horizon))
        [ "Layer"; "Kernels"; "Commands"; "Cycles"; "Share" ]
    in
    List.iter (fun i -> Table.set_align tbl i Table.Right) [ 2; 3; 4 ];
    List.iter
      (fun (s : Span.span) ->
        let cycles = max 0 (s.Span.t1 - s.Span.t0) in
        let share =
          if horizon <= 0 then 0.
          else 100. *. float_of_int cycles /. float_of_int horizon
        in
        Table.add_row tbl
          [
            label s;
            String.concat "+"
              (List.rev
                 (Option.value ~default:[]
                    (Hashtbl.find_opt kernels s.Span.id)));
            Table.fmt_int
              (Option.value ~default:0 (Hashtbl.find_opt commands s.Span.id));
            Table.fmt_int cycles;
            Table.fmt_pct share;
          ])
      layers;
    Buffer.add_string buf (Table.render tbl);
    Buffer.add_char buf '\n'
  end;
  (* Queue-latency distribution per component. *)
  (match latency t with
  | [] -> ()
  | rows ->
      let tbl =
        Table.create ~title:"Queue latency (cycles from request to service)"
          [ "Component"; "Acquires"; "p50"; "p95"; "p99"; "Max" ]
      in
      List.iter (fun i -> Table.set_align tbl i Table.Right) [ 1; 2; 3; 4; 5 ];
      List.iter
        (fun (name, acquires, (s : Stats.Histogram.summary)) ->
          Table.add_row tbl
            [
              name;
              Table.fmt_int acquires;
              fmt_cycles s.Stats.Histogram.p50;
              fmt_cycles s.Stats.Histogram.p95;
              fmt_cycles s.Stats.Histogram.p99;
              fmt_cycles s.Stats.Histogram.max;
            ])
        rows;
      Buffer.add_string buf (Table.render tbl));
  (* Span bookkeeping anomalies are worth surfacing, not hiding. *)
  let orphans = Span.orphan_closes t.recorder
  and forced = Span.forced_closes t.recorder in
  if orphans > 0 || forced > 0 then
    Buffer.add_string buf
      (Printf.sprintf "span anomalies: %d orphan close(s), %d forced close(s)\n"
         orphans forced);
  Buffer.contents buf

(* --- streaming chrome export ----------------------------------------------

   The batch exporter keeps the whole span tree until it writes; long
   serving runs would grow without bound. The streaming writer feeds a
   non-retaining span recorder whose opens and closes go straight to the
   encoder, so memory is bounded by span nesting depth, not run length.
   Because the simulation is deterministic, so is first-appearance track
   order, and two identical runs stream byte-identical files. *)

module Streaming = struct
  type t = {
    engine : Engine.t;
    enc : Chrome.t;
    spans : Span.t;
    mutable close : unit -> unit;
    mutable finished : bool;
  }

  let attach engine ~out =
    let enc = Chrome.create out in
    let t =
      {
        engine;
        enc;
        spans =
          Span.create
            ~observer:
              {
                Span.on_open = Chrome.span_open enc;
                on_close = Chrome.span_close enc;
              }
            ();
        close = ignore;
        finished = false;
      }
    in
    Engine.add_sink engine (fun ev ->
        if not t.finished then
          match ev with
          | Engine.Fault { component; time; kind; detail } ->
              Chrome.fault enc ~component ~time ~kind ~detail
          | Engine.Span_open _ | Engine.Span_close _ -> Span.on_event t.spans ev
          | Engine.Acquire _ | Engine.Transfer _ | Engine.Translate _
          | Engine.Note _ ->
              ());
    t

  let attach_file engine path =
    let oc = open_out path in
    let t = attach engine ~out:(output_string oc) in
    t.close <- (fun () -> close_out oc);
    t

  let finish t =
    if not t.finished then begin
      Span.finalize t.spans ~horizon:(Engine.now t.engine);
      Chrome.finish t.enc;
      t.finished <- true;
      t.close ()
    end

  let events_written t = t.enc.Chrome.records
  let orphan_closes t = Span.orphan_closes t.spans
  let forced_closes t = Span.forced_closes t.spans
end
