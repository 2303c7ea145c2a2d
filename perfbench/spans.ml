(* In-memory spans around the benchmark's own calls into the simulator's
   layers. A span is a named interval of host time with a parent and the
   id of the workload operation it belongs to. A layer's self time is its
   span's duration minus the time its direct children cover; children
   never overlap because the benchmark makes one call at a time. Spans
   are written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for a root *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;
}

type t = {
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable count : int;
  mutable stack : span list;  (* open spans, innermost first *)
}

let now = Unix.gettimeofday
let create () = { origin = now (); spans = []; count = 0; stack = [] }

let push t ~op name ~t0 =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = t.count; name; op; parent; t0; t1 = nan; child_s = 0. } in
  t.count <- t.count + 1;
  t.spans <- s :: t.spans;
  s

let charge_parent t s =
  match t.stack with p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0) | [] -> ()

let with_span t ~op name f =
  let s = push t ~op name ~t0:(now ()) in
  t.stack <- s :: t.stack;
  let close () =
    s.t1 <- now ();
    (match t.stack with
    | top :: rest when top == s -> t.stack <- rest
    | _ -> invalid_arg "Spans.with_span: spans closed out of order");
    charge_parent t s
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* A closed child of the innermost open span that stands for many short
   intervals summed into one (e.g. every forcing of a lazy op stream):
   recording each would cost more than the work it measures. *)
let add_summary t ~op name ~seconds =
  let t0 = match t.stack with p :: _ -> p.t0 | [] -> now () in
  let s = push t ~op name ~t0 in
  s.t1 <- t0 +. seconds;
  charge_parent t s

let self_s s = s.t1 -. s.t0 -. s.child_s

let total_self t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. self_s s else acc)
    0. t.spans

let to_json t =
  let module J = Gem_util.Jsonx in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("op", J.Int s.op);
             ("parent", J.Int s.parent);
             ("start_s", J.Float (s.t0 -. t.origin));
             ("end_s", J.Float (s.t1 -. t.origin));
             ("self_s", J.Float (self_s s));
           ])
       t.spans)

let write_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Gem_util.Jsonx.to_string (to_json t)))
