module Stats = Gem_util.Stats
module J = Gem_util.Jsonx
module Table = Gem_util.Table

(* --- chrome encoder ---------------------------------------------------------

   The file is one big JSON array; each record is built as a Jsonx value
   and printed on its own line, so output stays deterministic and the whole
   file still parses as standard JSON. One "process" per core scope (shared
   components form the "soc" process), one "thread" per component; a
   track's metadata rows are written right before the first record that
   needs them. *)

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
  let is_sync cat = cat = "network" || cat = "layer"

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

(* --- collector ---------------------------------------------------------------

   One engine sink feeds a non-retaining span recorder whose opens and
   closes go straight to the Chrome encoder, so memory is bounded by span
   nesting depth, not run length. Registered components get their tracks
   up front, in registration order (construction order, so deterministic);
   components that emit without registering (unit tests with bare engines)
   get theirs at first use. Fault instants are written as they happen, and
   the counter tracks at [finalize] from per-component windowed series. *)

(* Per-component windowed series fed by Acquire/Transfer events. *)
type comp = {
  c_busy : Stats.Series.t; (* busy cycles, attributed to the start window *)
  c_backlog : Stats.Series.t; (* outstanding occupancy: finish - request *)
  c_bytes : Stats.Series.t; (* transferred bytes per window *)
  mutable c_transfers : int;
}

(* Counter-track window width, in cycles. *)
let window = 65536.

(* One row of the layer profile, filled in as the layer's spans open; the
   layer span's end stamp is set when it closes. *)
type row = {
  layer : Span.span;
  mutable kernels : string list; (* distinct, reversed opening order *)
  mutable commands : int;
}

type layers = {
  mutable rows : row list; (* reversed opening order *)
  open_rows : (int, row) Hashtbl.t; (* open span id -> its layer's row *)
}

(* A span's layer is itself or its parent's, and a parent is open while
   its child opens. *)
let layer_open l (s : Span.span) =
  let row =
    if s.Span.cat = "layer" then begin
      let r = { layer = s; kernels = []; commands = 0 } in
      l.rows <- r :: l.rows;
      Some r
    end
    else Hashtbl.find_opt l.open_rows s.Span.parent
  in
  Option.iter
    (fun r ->
      Hashtbl.replace l.open_rows s.Span.id r;
      match s.Span.cat with
      | "kernel" ->
          if not (List.mem s.Span.name r.kernels) then
            r.kernels <- s.Span.name :: r.kernels
      | "command" -> r.commands <- r.commands + 1
      | _ -> ())
    row

type t = {
  engine : Engine.t;
  recorder : Span.t;
  chrome : Chrome.t option;
  buffer : Buffer.t option; (* the in-memory destination *)
  close : unit -> unit;
  comps : (string, comp) Hashtbl.t;
  mutable comp_order : string list; (* first-seen, reversed *)
  layers : layers;
  mutable finished : bool;
}

let comp_for t name =
  match Hashtbl.find_opt t.comps name with
  | Some c -> c
  | None ->
      let c =
        {
          c_busy = Stats.Series.create ~window;
          c_backlog = Stats.Series.create ~window;
          c_bytes = Stats.Series.create ~window;
          c_transfers = 0;
        }
      in
      Hashtbl.add t.comps name c;
      t.comp_order <- name :: t.comp_order;
      c

let on_event t (ev : Engine.event) =
  if not t.finished then begin
    (match (t.chrome, ev) with
    | Some _, Engine.Acquire { component; time; start; finish } ->
        let c = comp_for t component in
        Stats.Series.add c.c_busy ~time:(float_of_int start)
          (float_of_int (finish - start));
        Stats.Series.add c.c_backlog ~time:(float_of_int time)
          (float_of_int (finish - time))
    | Some _, Engine.Transfer { component; time; bytes; _ } ->
        let c = comp_for t component in
        c.c_transfers <- c.c_transfers + 1;
        Stats.Series.add c.c_bytes ~time:(float_of_int time)
          (float_of_int bytes)
    | Some enc, Engine.Fault { component; time; kind; detail } ->
        Chrome.fault enc ~component ~time ~kind ~detail
    | _ -> ());
    Span.on_event t.recorder ev
  end

let attach ?(chrome = `Memory) engine =
  let buffer, out, close =
    match chrome with
    | `Memory ->
        let b = Buffer.create 65536 in
        (Some b, Some (Buffer.add_string b), ignore)
    | `File path ->
        let oc = open_out path in
        (None, Some (output_string oc), fun () -> close_out oc)
    | `Off -> (None, None, ignore)
  in
  let enc = Option.map Chrome.create out in
  Option.iter
    (fun enc ->
      List.iter
        (fun (name, _) -> ignore (Chrome.track enc name))
        (Engine.components engine))
    enc;
  let layers = { rows = []; open_rows = Hashtbl.create 64 } in
  let observer =
    {
      Span.on_open =
        (fun s ->
          layer_open layers s;
          match enc with Some enc -> Chrome.span_open enc s | None -> ());
      on_close =
        (fun s ->
          Hashtbl.remove layers.open_rows s.Span.id;
          match enc with Some enc -> Chrome.span_close enc s | None -> ());
    }
  in
  let t =
    {
      engine;
      recorder = Span.create observer;
      chrome = enc;
      buffer;
      close;
      comps = Hashtbl.create 16;
      comp_order = [];
      layers;
      finished = false;
    }
  in
  Engine.add_sink engine (on_event t);
  t

let recorder t = t.recorder

(* Counter tracks: windowed utilization, outstanding occupancy and
   transferred bytes per component with activity. *)
let write_counters t enc =
  List.iter
    (fun name ->
      let c = Hashtbl.find t.comps name in
      let pid, _ = Chrome.track enc name in
      let counter suffix ~key time v =
        Chrome.counter enc ~name:(name ^ suffix) ~pid ~ts:(int_of_float time)
          ~key v
      in
      Array.iter
        (fun (time, sum, _) ->
          counter " util %" ~key:"value" time (J.Float (100. *. sum /. window)))
        (Stats.Series.window_totals c.c_busy);
      Array.iter
        (fun (time, mean) -> counter " outstanding" ~key:"cycles" time (J.Float mean))
        (Stats.Series.windows c.c_backlog);
      if c.c_transfers > 0 then
        Array.iter
          (fun (time, sum, _) ->
            counter " bytes" ~key:"value" time (J.Int (int_of_float sum)))
          (Stats.Series.window_totals c.c_bytes))
    (List.rev t.comp_order)

let finalize t =
  if not t.finished then begin
    Span.finalize t.recorder ~horizon:(Engine.now t.engine);
    Option.iter
      (fun enc ->
        write_counters t enc;
        Chrome.finish enc)
      t.chrome;
    t.finished <- true;
    t.close ()
  end

let events_written t =
  match t.chrome with Some enc -> enc.Chrome.records | None -> 0

let in_memory t what =
  match t.buffer with
  | Some b ->
      finalize t;
      b
  | None -> invalid_arg ("Export." ^ what ^ ": the trace was not kept in memory")

let chrome_string t = Buffer.contents (in_memory t "chrome_string")

let write_chrome_file t path =
  let b = in_memory t "write_chrome_file" in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

(* --- text report ---------------------------------------------------------- *)

let fmt_cycles f = if Float.is_nan f then "-" else Table.fmt_f ~dec:1 f

let report t =
  let horizon = Engine.now t.engine in
  let buf = Buffer.create 4096 in
  let rows = List.rev t.layers.rows in
  (* Multi-core runs repeat layer names; prefix each row with its core so
     rows line up with the core-prefixed component names elsewhere. *)
  let scopes =
    List.sort_uniq compare
      (List.map (fun r -> scope_of_name r.layer.Span.component) rows)
  in
  let label (s : Span.span) =
    match scopes with
    | [] | [ _ ] -> s.Span.name
    | _ -> scope_of_name s.Span.component ^ ":" ^ s.Span.name
  in
  if rows <> [] then begin
    let tbl =
      Table.create
        ~title:
          (Printf.sprintf "Layer profile (horizon = %s cycles)"
             (Table.fmt_int horizon))
        [ "Layer"; "Kernels"; "Commands"; "Cycles"; "Share" ]
    in
    List.iter (fun i -> Table.set_align tbl i Table.Right) [ 2; 3; 4 ];
    List.iter
      (fun r ->
        let s = r.layer in
        let cycles = max 0 (s.Span.t1 - s.Span.t0) in
        let share =
          if horizon <= 0 then 0.
          else 100. *. float_of_int cycles /. float_of_int horizon
        in
        Table.add_row tbl
          [
            label s;
            String.concat "+" (List.rev r.kernels);
            Table.fmt_int r.commands;
            Table.fmt_int cycles;
            Table.fmt_pct share;
          ])
      rows;
    Buffer.add_string buf (Table.render tbl);
    Buffer.add_char buf '\n'
  end;
  (* Queue-latency distribution per component, kept by the engine. *)
  (match Engine.latency t.engine with
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
