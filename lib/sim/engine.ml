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
  mutable next_res_id : int; (* dense ids handed to owned resources *)
  name_counts : (string, int) Hashtbl.t;
  mutable sinks : (event -> unit) list;
  fault_counts : (string, int) Hashtbl.t; (* component name -> traps *)
  mutable total_faults : int;
  (* Parallel-section clock: length 0 outside a parallel section (clock
     updates go straight to [clock]); inside one, every domain advances
     only its own slot and the coordinator folds the maxima back into
     [clock] at the barrier. *)
  mutable par_slots : Time.cycles array;
  trap_lock : Mutex.t; (* fault tally, reachable from worker domains *)
}

let create () =
  {
    clock = Time.zero;
    entries = [];
    next_res_id = 0;
    name_counts = Hashtbl.create 16;
    sinks = [];
    fault_counts = Hashtbl.create 16;
    total_faults = 0;
    par_slots = [||];
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
  Resource.set_id res t.next_res_id;
  t.next_res_id <- t.next_res_id + 1;
  t.entries <- { e_name = name; e_kind = kind; e_impl = Owned { res; note } } :: t.entries;
  res

let register_probe t ~kind ~name ~sample =
  let name = unique_name t name in
  t.entries <- { e_name = name; e_kind = kind; e_impl = Probe sample } :: t.entries

let components t =
  List.rev_map (fun e -> (e.e_name, e.e_kind)) t.entries

(* --- clock and events ---------------------------------------------------- *)

let now t = t.clock

(* Which parallel-clock slot the calling domain advances. The coordinator
   keeps the default slot 0; worker domains are pinned to their own slot
   by [set_domain_slot] right after spawn. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_domain_slot i = Domain.DLS.set slot_key i

let observe t time =
  let slots = t.par_slots in
  if Array.length slots = 0 then begin
    if time > t.clock then t.clock <- time
  end
  else begin
    let s = Domain.DLS.get slot_key in
    if time > Array.unsafe_get slots s then Array.unsafe_set slots s time
  end

let enter_parallel t ~slots =
  if slots <= 0 then invalid_arg "Engine.enter_parallel: slots <= 0";
  if Array.length t.par_slots <> 0 then
    invalid_arg "Engine.enter_parallel: already parallel";
  t.par_slots <- Array.make slots t.clock

let exit_parallel t =
  let slots = t.par_slots in
  t.par_slots <- [||];
  Array.iter (fun c -> if c > t.clock then t.clock <- c) slots

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
  (* The tally is cold (one lock per trap, not per event) but must be
     domain-safe: worker domains report Degrade/validate faults while the
     coordinator may be tallying its own. *)
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

module J = Gem_util.Jsonx
module Snap = Gem_util.Snap

let snapshot t =
  let resources =
    List.rev
      (List.filter_map
         (fun e ->
           match e.e_impl with
           | Probe _ -> None
           | Owned { res; _ } ->
               Some
                 ( e.e_name,
                   Snap.of_int_list
                     [ Resource.busy_until res; Resource.busy_cycles res;
                       Resource.requests res; Resource.wait_cycles res ] ))
         t.entries)
  in
  let fault_counts =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) t.fault_counts [])
  in
  J.Obj
    [ ("clock", J.Int t.clock);
      ("resources", J.Obj resources);
      ("fault_counts", J.Obj fault_counts);
      ("total_faults", J.Int t.total_faults) ]

let restore t j =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.e_impl with
      | Owned { res; _ } -> Hashtbl.replace by_name e.e_name res
      | Probe _ -> ())
    t.entries;
  let saved = Snap.obj (Snap.member "resources" j) in
  Snap.check ~what:"engine resource registry size"
    (List.length saved = Hashtbl.length by_name);
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt by_name name with
      | None -> Snap.fail "snapshot resource %S not in this engine" name
      | Some res -> (
          match Snap.int_list v with
          | [ busy_until; busy_cycles; requests; wait_cycles ] ->
              Resource.force_state res ~busy_until ~busy_cycles ~requests
                ~wait_cycles
          | _ -> Snap.fail "resource %S: expected 4 counters" name))
    saved;
  t.clock <- Snap.get_int "clock" j;
  Hashtbl.reset t.fault_counts;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.fault_counts k (Snap.int v))
    (Snap.obj (Snap.member "fault_counts" j));
  t.total_faults <- Snap.get_int "total_faults" j

let reset t =
  t.clock <- Time.zero;
  Hashtbl.reset t.fault_counts;
  t.total_faults <- 0;
  List.iter
    (fun e -> match e.e_impl with Owned { res; _ } -> Resource.reset res | Probe _ -> ())
    t.entries
