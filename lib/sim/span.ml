type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  component : string;
  t0 : Time.cycles;
  mutable t1 : Time.cycles;
  args : (string * string) list;
}

let dummy =
  {
    id = -1;
    parent = -1;
    name = "";
    cat = "";
    component = "";
    t0 = 0;
    t1 = 0;
    args = [];
  }

type observer = { on_open : span -> unit; on_close : span -> unit }

type t = {
  mutable buf : span array; (* retained spans, indexed by id *)
  mutable len : int; (* spans opened so far: the next id *)
  retain : bool; (* no observer: keep every span in [buf] *)
  (* scope (core prefix of the component name) -> stack of open spans *)
  stacks : (string, span list ref) Hashtbl.t;
  (* memoized component -> scope for prefixed names; full runs see the
     same dozen components millions of times *)
  scope_memo : (string, string) Hashtbl.t;
  mutable current_scope : string;
  mutable orphans : int;
  mutable forced : int;
  acquire_spans : string -> bool;
  observer : observer;
}

let no_acquire_spans _ = false
let ignore_span (_ : span) = ()
let retaining = { on_open = ignore_span; on_close = ignore_span }

let create ?(acquire_spans = no_acquire_spans) ?observer () =
  let retain = Option.is_none observer in
  {
    buf = (if retain then Array.make 256 dummy else [||]);
    len = 0;
    retain;
    stacks = Hashtbl.create 8;
    scope_memo = Hashtbl.create 16;
    current_scope = "";
    orphans = 0;
    forced = 0;
    acquire_spans;
    observer = Option.value observer ~default:retaining;
  }

let count t = t.len
let retained t = if t.retain then t.len else 0

let get t id =
  if id < 0 || id >= retained t then invalid_arg "Span.get: id out of range";
  t.buf.(id)

let iter t f =
  for i = 0 to retained t - 1 do
    f t.buf.(i)
  done

let to_list t = List.init (retained t) (fun i -> t.buf.(i))
let orphan_closes t = t.orphans
let forced_closes t = t.forced

let open_count t =
  Hashtbl.fold (fun _ stack acc -> acc + List.length !stack) t.stacks 0

let record t ~parent ~name ~cat ~component ~t0 ~t1 ~args =
  let span = { id = t.len; parent; name; cat; component; t0; t1; args } in
  if t.retain then begin
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- span
  end;
  t.len <- t.len + 1;
  span

(* Shared components carry no core prefix; their events attribute to the
   scope that most recently opened a span, which is the executing core
   because operations execute one at a time. *)
let scope_of t component =
  match Hashtbl.find_opt t.scope_memo component with
  | Some s -> s
  | None -> (
      match String.index_opt component '/' with
      | Some i ->
          let s = String.sub component 0 i in
          Hashtbl.replace t.scope_memo component s;
          s
      | None -> if t.current_scope = "" then component else t.current_scope)

let stack_for t scope =
  match Hashtbl.find_opt t.stacks scope with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.stacks scope s;
      s

let parent_of stack = match !stack with [] -> -1 | p :: _ -> p.id

let on_event t (ev : Engine.event) =
  match ev with
  | Engine.Span_open { component; time; name; cat; args } ->
      let scope = scope_of t component in
      t.current_scope <- scope;
      let stack = stack_for t scope in
      let span =
        record t ~parent:(parent_of stack) ~name ~cat ~component ~t0:time
          ~t1:(-1) ~args
      in
      stack := span :: !stack;
      t.observer.on_open span
  | Engine.Span_close { component; time; name } ->
      let scope = scope_of t component in
      let stack = stack_for t scope in
      if List.exists (fun s -> s.name = name) !stack then begin
        (* Close the innermost open span with this name; anything opened
           inside it that never closed is force-closed at the same stamp
           so the tree stays well-formed. *)
        let rec close = function
          | [] -> []
          | s :: rest ->
              s.t1 <- time;
              t.observer.on_close s;
              if s.name = name then rest
              else begin
                t.forced <- t.forced + 1;
                close rest
              end
        in
        stack := close !stack
      end
      else t.orphans <- t.orphans + 1
  | Engine.Acquire { component; time; start; finish } ->
      if t.acquire_spans component then begin
        let stack = stack_for t (scope_of t component) in
        let args =
          if start > time then [ ("queue", string_of_int (start - time)) ]
          else []
        in
        let span =
          record t ~parent:(parent_of stack) ~name:component ~cat:"acquire"
            ~component ~t0:start ~t1:finish ~args
        in
        t.observer.on_open span;
        t.observer.on_close span
      end
  | Engine.Transfer _ | Engine.Translate _ | Engine.Note _ | Engine.Fault _ ->
      ()

let finalize t ~horizon =
  let scopes =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.stacks [])
  in
  List.iter
    (fun scope ->
      let stack = Hashtbl.find t.stacks scope in
      List.iter
        (fun s ->
          s.t1 <- horizon;
          t.forced <- t.forced + 1;
          t.observer.on_close s)
        !stack;
      stack := [])
    scopes

let attach ?acquire_spans engine =
  let t = create ?acquire_spans () in
  Engine.add_sink engine (on_event t);
  t

let emit_open engine ~component ~time ?(cat = "span") ?(args = []) name =
  if Engine.live engine then
    Engine.emit engine (Engine.Span_open { component; time; name; cat; args })
  else Engine.observe engine time

let emit_close engine ~component ~time name =
  if Engine.live engine then
    Engine.emit engine (Engine.Span_close { component; time; name })
  else Engine.observe engine time
