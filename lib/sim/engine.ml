type kind =
  | Bus
  | Dram
  | Cache
  | Scratchpad
  | Tlb
  | Ptw
  | Dma
  | Pipeline
  | Host

let kind_label = function
  | Bus -> "bus"
  | Dram -> "dram"
  | Cache -> "cache"
  | Scratchpad -> "scratchpad"
  | Tlb -> "tlb"
  | Ptw -> "ptw"
  | Dma -> "dma"
  | Pipeline -> "pipeline"
  | Host -> "host"

type event =
  | Acquire of {
      component : string;
      time : Time.cycles;
      start : Time.cycles;
      finish : Time.cycles;
    }
  | Transfer of {
      component : string;
      time : Time.cycles;
      dir : [ `Read | `Write ];
      bytes : int;
    }
  | Translate of { component : string; time : Time.cycles; level : string }
  | Note of { component : string; time : Time.cycles; detail : string }
  | Fault of {
      component : string;
      time : Time.cycles;
      kind : string;
      detail : string;
    }
  | Span_open of {
      component : string;
      time : Time.cycles;
      name : string;
      cat : string;
      args : (string * string) list;
    }
  | Span_close of { component : string; time : Time.cycles; name : string }

let event_time = function
  | Acquire { time; _ } | Transfer { time; _ } | Translate { time; _ }
  | Note { time; _ } | Fault { time; _ } | Span_open { time; _ }
  | Span_close { time; _ } ->
      time

type sample = {
  p_requests : int;
  p_busy : Time.cycles;
  p_wait : Time.cycles;
  p_note : string;
}

type stat = {
  stat_name : string;
  stat_kind : kind;
  stat_requests : int;
  stat_busy : Time.cycles;
  stat_wait : Time.cycles;
  stat_faults : int;
  stat_note : string;
}

type impl =
  | Owned of { res : Resource.t; note : unit -> string }
  | Probe of (unit -> sample)

type entry = { e_name : string; e_kind : kind; e_impl : impl }

type t = {
  mutable clock : Time.cycles;
  mutable entries : entry list; (* reversed registration order *)
  name_counts : (string, int) Hashtbl.t;
  mutable sinks : (event -> unit) list;
  fault_counts : (string, int) Hashtbl.t; (* component name -> traps *)
  mutable total_faults : int;
  trap_lock : Mutex.t; (* fault tally *)
}

let create () =
  {
    clock = Time.zero;
    entries = [];
    name_counts = Hashtbl.create 16;
    sinks = [];
    fault_counts = Hashtbl.create 16;
    total_faults = 0;
    trap_lock = Mutex.create ();
  }

(* --- registry ------------------------------------------------------------ *)

let unique_name t name =
  match Hashtbl.find_opt t.name_counts name with
  | None ->
      Hashtbl.replace t.name_counts name 1;
      name
  | Some n ->
      Hashtbl.replace t.name_counts name (n + 1);
      Printf.sprintf "%s#%d" name (n + 1)

let no_note () = ""

let resource ?(note = no_note) t ~kind ~name =
  let name = unique_name t name in
  let res = Resource.create ~name in
  t.entries <- { e_name = name; e_kind = kind; e_impl = Owned { res; note } } :: t.entries;
  res

let register_probe t ~kind ~name ~sample =
  let name = unique_name t name in
  t.entries <- { e_name = name; e_kind = kind; e_impl = Probe sample } :: t.entries

let components t =
  List.rev_map (fun e -> (e.e_name, e.e_kind)) t.entries

(* --- clock and events ---------------------------------------------------- *)

let now t = t.clock

let observe t time = if time > t.clock then t.clock <- time

let live t = match t.sinks with [] -> false | _ :: _ -> true
let add_sink t f = t.sinks <- t.sinks @ [ f ]

module P = Gem_obs.Profile

let emit t event =
  if !P.on then P.enter P.event;
  observe t (event_time event);
  List.iter (fun sink -> sink event) t.sinks;
  if !P.on then P.leave P.event

(* Sinks see every event as it is emitted, so nothing is ever dropped. *)
let dropped_events _ = 0

(* --- timing -------------------------------------------------------------- *)

let acquire t res ~now ~occupancy =
  if !P.on then P.enter P.acquire;
  let finish = Resource.acquire res ~now ~occupancy in
  observe t finish;
  if live t then
    emit t
      (Acquire
         {
           component = Resource.name res;
           time = now;
           start = finish - occupancy;
           finish;
         });
  if !P.on then P.leave P.acquire;
  finish

let next_free _t res ~now = Resource.next_free res ~now

let occupy t res ~now ~start ~until =
  if !P.on then P.enter P.acquire;
  Resource.occupy_until res ~now ~start ~until;
  observe t until;
  if live t then
    emit t
      (Acquire { component = Resource.name res; time = now; start; finish = until });
  if !P.on then P.leave P.acquire

(* --- faults --------------------------------------------------------------- *)

let faults t ~component =
  Option.value ~default:0 (Hashtbl.find_opt t.fault_counts component)

let total_faults t = t.total_faults

let trap t (fault : Fault.t) =
  (* The tally is cold (one lock per trap, not per event), so it stays
     domain-safe at no cost to the hot path. *)
  Mutex.lock t.trap_lock;
  Hashtbl.replace t.fault_counts fault.Fault.component
    (faults t ~component:fault.Fault.component + 1);
  t.total_faults <- t.total_faults + 1;
  Mutex.unlock t.trap_lock;
  observe t fault.Fault.cycle;
  if live t then
    emit t
      (Fault
         {
           component = fault.Fault.component;
           time = fault.Fault.cycle;
           kind = Fault.cause_label fault.Fault.cause;
           detail = Fault.cause_detail fault.Fault.cause;
         });
  Fault.trap fault

(* --- metrics ------------------------------------------------------------- *)

let stat_of_entry t e =
  match e.e_impl with
  | Owned { res; note } ->
      {
        stat_name = e.e_name;
        stat_kind = e.e_kind;
        stat_requests = Resource.requests res;
        stat_busy = Resource.busy_cycles res;
        stat_wait = Resource.wait_cycles res;
        stat_faults = faults t ~component:e.e_name;
        stat_note = note ();
      }
  | Probe sample ->
      let s = sample () in
      {
        stat_name = e.e_name;
        stat_kind = e.e_kind;
        stat_requests = s.p_requests;
        stat_busy = s.p_busy;
        stat_wait = s.p_wait;
        stat_faults = faults t ~component:e.e_name;
        stat_note = s.p_note;
      }

let stats t = List.rev_map (stat_of_entry t) t.entries

module H = Gem_util.Stats.Histogram

let latency t =
  List.fold_left
    (fun acc e ->
      match e.e_impl with
      | Probe _ -> acc
      | Owned { res; _ } ->
          let h = Resource.latency res in
          let n = H.count h in
          if n = 0 then acc else (e.e_name, n, H.summary h) :: acc)
    [] t.entries

let component_summary t ~horizon =
  let stats = stats t in
  let horizon = float_of_int (max 1 horizon) in
  ( List.map (fun s -> (s.stat_name, float_of_int s.stat_busy /. horizon)) stats,
    List.map (fun s -> (s.stat_name, s.stat_wait)) stats,
    List.map (fun (name, _, (s : H.summary)) -> (name, s.H.p95)) (latency t) )

(* Pull-based: closures over [t] are sampled when the registry is
   snapshotted, after the run — registration itself costs nothing on the
   simulation path. *)
let register_metrics ?(prefix = "engine.") t reg =
  let module M = Gem_obs.Metrics in
  M.pull_int reg (prefix ^ "clock") (fun () -> now t);
  M.pull_int reg (prefix ^ "faults") (fun () -> total_faults t);
  List.iter
    (fun e ->
      let base = prefix ^ "comp." ^ e.e_name in
      M.pull_int reg (base ^ ".requests") (fun () ->
          (stat_of_entry t e).stat_requests);
      M.pull_int reg (base ^ ".busy") (fun () -> (stat_of_entry t e).stat_busy);
      M.pull_int reg (base ^ ".wait") (fun () -> (stat_of_entry t e).stat_wait))
    (List.rev t.entries)

let utilization_table t ?horizon:h () =
  let module Table = Gem_util.Table in
  let horizon = match h with Some h -> h | None -> t.clock in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Engine profile (horizon = %s cycles)"
           (Table.fmt_int horizon))
      [
        "Component"; "Kind"; "Requests"; "Busy"; "Wait"; "Util"; "Faults";
        "Detail";
      ]
  in
  List.iter (fun i -> Table.set_align tbl i Table.Right) [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun s ->
      let util =
        if horizon <= 0 then 0.
        else 100. *. float_of_int s.stat_busy /. float_of_int horizon
      in
      Table.add_row tbl
        [
          s.stat_name;
          kind_label s.stat_kind;
          Table.fmt_int s.stat_requests;
          Table.fmt_int s.stat_busy;
          Table.fmt_int s.stat_wait;
          Table.fmt_pct util;
          Table.fmt_int s.stat_faults;
          s.stat_note;
        ])
    (stats t);
  tbl

(* --- snapshot / restore ----------------------------------------------------

   The engine's mutable state is the chip-wide timing substrate: the clock,
   every owned resource's arbitration counters and the fault attribution
   table. All of it serializes to
   deterministic JSON (owned resources keyed by their unique registered
   names, fault counts sorted) so a snapshot of a quiesced SoC is
   byte-stable. Probes are excluded: the components they sample snapshot
   their own state. *)

module Snap = Gem_util.Snap

let owned t =
  List.rev
    (List.filter_map
       (fun e -> match e.e_impl with Owned { res; _ } -> Some (e.e_name, res) | Probe _ -> None)
       t.entries)

let resources t =
  List.map
    (fun (name, r) ->
      ( name,
        Resource.[| busy_until r; busy_cycles r; requests r; wait_cycles r |] ))
    (owned t)

(* The snapshot must name every owned resource once ([Snap.assoc] refuses
   a name given twice) and no other. *)
let set_resources t saved =
  let mine = owned t in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name mine) then Snap.fail "resource %S is not in this engine" name)
    saved;
  List.iter
    (fun (name, res) ->
      match List.assoc_opt name saved with
      | Some c ->
          Resource.force_state res ~busy_until:c.(0) ~busy_cycles:c.(1) ~requests:c.(2)
            ~wait_cycles:c.(3)
      | None -> Snap.fail "resource %S is missing" name)
    mine

let codec =
  Snap.(
    obj
      [ field "clock" int (fun t -> t.clock) (fun t v -> t.clock <- v);
        field "resources" (assoc (ints 4)) resources set_resources;
        field "fault_counts" (assoc int)
          (fun t -> List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) t.fault_counts []))
          (fun t counts ->
            Hashtbl.reset t.fault_counts;
            List.iter (fun (k, v) -> Hashtbl.replace t.fault_counts k v) counts);
        field "total_faults" int (fun t -> t.total_faults) (fun t v -> t.total_faults <- v) ])

let reset t =
  t.clock <- Time.zero;
  Hashtbl.reset t.fault_counts;
  t.total_faults <- 0;
  List.iter
    (fun e -> match e.e_impl with Owned { res; _ } -> Resource.reset res | Probe _ -> ())
    t.entries
