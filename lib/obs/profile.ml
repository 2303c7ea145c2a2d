(* Self-profiler: wall-clock and allocation attribution of the
   simulator's own host-side phases.

   The design constraints, in order:

   1. Disabled cost must be a single [!on] branch at every probe site —
      the quiet-run hot path (~19ns/op) is the asset ROADMAP item 3
      protects, so probes never allocate, never read the clock, and
      never touch a hashtable unless profiling is enabled.
   2. Simulated time must be untouched: the profiler observes only host
      wall time ([Unix.gettimeofday]) and host allocation
      ([Gc.allocated_bytes]), so cycle counts are byte-identical with
      profiling on or off (checked by test_soc.ml and a CI byte gate).
   3. Domain-safe: DSE executors spawn worker Domains; each domain gets
      its own state via [Domain.DLS], registered under a mutex into a
      global list that [phases]/[reset] merge or clear.

   Exclusive ("self") time uses the classic stack discipline: entering a
   phase closes the parent's current slice; leaving a phase closes its
   own slice and reopens the parent's. A phase's self time is therefore
   the wall time spent in it *excluding* nested probed phases, which is
   exactly the "where would flattening pay off" number. *)

type acc = {
  mutable a_calls : int;
  mutable a_self_s : float;
  mutable a_total_s : float;
  mutable a_self_bytes : float;
}

type frame = {
  fr_name : string;
  fr_acc : acc;
  (* start of the current exclusive slice; reset when a child leaves *)
  mutable fr_slice_t : float;
  mutable fr_slice_b : float;
  (* entry stamp, for inclusive time *)
  fr_t0 : float;
}

type dstate = {
  accs : (string, acc) Hashtbl.t;
  mutable stack : frame list;
  mutable orphans : int;
  mutable forced : int;
}

let on = ref false
let enabled () = !on

(* All per-domain states ever created, so reports can merge across the
   DSE worker pool. Guarded by [lock]; the hot path never takes it —
   only state creation (once per domain) and reporting do. *)
let lock = Mutex.create ()
let states : dstate list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        { accs = Hashtbl.create 16; stack = []; orphans = 0; forced = 0 }
      in
      Mutex.lock lock;
      states := st :: !states;
      Mutex.unlock lock;
      st)

let state () = Domain.DLS.get key

let acc_for st name =
  match Hashtbl.find_opt st.accs name with
  | Some a -> a
  | None ->
      let a =
        { a_calls = 0; a_self_s = 0.; a_total_s = 0.; a_self_bytes = 0. }
      in
      Hashtbl.add st.accs name a;
      a

let enable () = on := true
let disable () = on := false

let reset () =
  Mutex.lock lock;
  List.iter
    (fun st ->
      Hashtbl.reset st.accs;
      st.stack <- [];
      st.orphans <- 0;
      st.forced <- 0)
    !states;
  Mutex.unlock lock

(* Canonical phase names, so every instrumented layer agrees on the
   vocabulary and reports line up across runs. *)
let dispatch = "soc.dispatch"
let acquire = "engine.acquire"
let event = "engine.event"
let dma = "dma.transfer"
let lowering = "runtime.lowering"
let schedule = "serve.schedule"
let dse = "dse.evaluate"

let close_slice now bytes fr =
  fr.fr_acc.a_self_s <- fr.fr_acc.a_self_s +. (now -. fr.fr_slice_t);
  fr.fr_acc.a_self_bytes <- fr.fr_acc.a_self_bytes +. (bytes -. fr.fr_slice_b)

let enter name =
  let st = state () in
  let now = Unix.gettimeofday () in
  let bytes = Gc.allocated_bytes () in
  (match st.stack with [] -> () | top :: _ -> close_slice now bytes top);
  let fr =
    {
      fr_name = name;
      fr_acc = acc_for st name;
      fr_slice_t = now;
      fr_slice_b = bytes;
      fr_t0 = now;
    }
  in
  st.stack <- fr :: st.stack

let pop_frame now bytes fr =
  close_slice now bytes fr;
  fr.fr_acc.a_calls <- fr.fr_acc.a_calls + 1;
  fr.fr_acc.a_total_s <- fr.fr_acc.a_total_s +. (now -. fr.fr_t0)

(* [leave name] pops the innermost frame with that name. Probed regions
   can be unwound by exceptions (a simulated trap propagating to the
   runtime's recovery policy), so a mismatched top is not fatal: frames
   above the match are force-popped (their elapsed time still
   attributed), and a leave with no matching open frame is counted as an
   orphan and otherwise ignored. *)
let leave name =
  let st = state () in
  if not (List.exists (fun fr -> fr.fr_name = name) st.stack) then
    st.orphans <- st.orphans + 1
  else begin
    let now = Unix.gettimeofday () in
    let bytes = Gc.allocated_bytes () in
    let rec pop = function
      | [] -> []
      | fr :: rest ->
          pop_frame now bytes fr;
          if fr.fr_name = name then rest
          else begin
            st.forced <- st.forced + 1;
            pop rest
          end
    in
    st.stack <- pop st.stack;
    match st.stack with
    | [] -> ()
    | top :: _ ->
        top.fr_slice_t <- now;
        top.fr_slice_b <- bytes
  end

let record name f =
  if not !on then f ()
  else begin
    enter name;
    Fun.protect ~finally:(fun () -> leave name) f
  end

(* --- reporting ---------------------------------------------------------- *)

type phase = {
  ph_name : string;
  ph_calls : int;
  ph_self_s : float;
  ph_total_s : float;
  ph_alloc_bytes : float;
}

let phases () =
  Mutex.lock lock;
  let merged : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name a ->
          match Hashtbl.find_opt merged name with
          | None ->
              Hashtbl.add merged name
                {
                  a_calls = a.a_calls;
                  a_self_s = a.a_self_s;
                  a_total_s = a.a_total_s;
                  a_self_bytes = a.a_self_bytes;
                }
          | Some m ->
              m.a_calls <- m.a_calls + a.a_calls;
              m.a_self_s <- m.a_self_s +. a.a_self_s;
              m.a_total_s <- m.a_total_s +. a.a_total_s;
              m.a_self_bytes <- m.a_self_bytes +. a.a_self_bytes)
        st.accs)
    !states;
  Mutex.unlock lock;
  let rows =
    Hashtbl.fold
      (fun name a rows ->
        {
          ph_name = name;
          ph_calls = a.a_calls;
          ph_self_s = a.a_self_s;
          ph_total_s = a.a_total_s;
          ph_alloc_bytes = a.a_self_bytes;
        }
        :: rows)
      merged []
  in
  (* Rank hottest-first; ties break on the name so the table is stable. *)
  List.sort
    (fun a b ->
      match compare b.ph_self_s a.ph_self_s with
      | 0 -> compare a.ph_name b.ph_name
      | c -> c)
    rows

let anomalies () =
  Mutex.lock lock;
  let o, f =
    List.fold_left
      (fun (o, f) st -> (o + st.orphans, f + st.forced))
      (0, 0) !states
  in
  Mutex.unlock lock;
  (o, f)

let attributed_s rows = List.fold_left (fun s p -> s +. p.ph_self_s) 0. rows

let coverage_pct ~total_s rows =
  if total_s <= 0. then 0. else 100. *. attributed_s rows /. total_s

module J = Gem_util.Jsonx

let to_json ~total_s () =
  let rows = phases () in
  let orphans, forced = anomalies () in
  J.Obj
    [
      ("schema", J.Int 1);
      ("total_wall_s", J.Float total_s);
      ("attributed_wall_s", J.Float (attributed_s rows));
      ("coverage_pct", J.Float (coverage_pct ~total_s rows));
      ( "phases",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("phase", J.String p.ph_name);
                   ("calls", J.Int p.ph_calls);
                   ("self_s", J.Float p.ph_self_s);
                   ( "self_pct",
                     J.Float
                       (if total_s <= 0. then 0.
                        else 100. *. p.ph_self_s /. total_s) );
                   ("total_s", J.Float p.ph_total_s);
                   ("alloc_mb", J.Float (p.ph_alloc_bytes /. 1048576.));
                 ])
             rows) );
      ("orphan_leaves", J.Int orphans);
      ("forced_leaves", J.Int forced);
    ]

let render ~total_s () =
  let module Table = Gem_util.Table in
  let rows = phases () in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Self-profile (%.3fs wall, %.1f%% attributed)"
           total_s (coverage_pct ~total_s rows))
      [ "Phase"; "Calls"; "Self (s)"; "Self %"; "Total (s)"; "Alloc (MB)" ]
  in
  List.iter (fun i -> Table.set_align tbl i Table.Right) [ 1; 2; 3; 4; 5 ];
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          p.ph_name;
          Table.fmt_int p.ph_calls;
          Table.fmt_f ~dec:3 p.ph_self_s;
          Table.fmt_pct
            (if total_s <= 0. then 0. else 100. *. p.ph_self_s /. total_s);
          Table.fmt_f ~dec:3 p.ph_total_s;
          Table.fmt_f ~dec:2 (p.ph_alloc_bytes /. 1048576.);
        ])
    rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render tbl);
  let orphans, forced = anomalies () in
  if orphans > 0 || forced > 0 then
    Buffer.add_string buf
      (Printf.sprintf "probe anomalies: %d orphan leave(s), %d forced leave(s)\n"
         orphans forced);
  Buffer.contents buf

let write_file ~total_s path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~pretty:true (to_json ~total_s ()));
      output_char oc '\n')
