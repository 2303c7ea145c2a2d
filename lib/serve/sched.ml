module Soc = Gem_soc.Soc
module Runtime = Gem_sw.Runtime
module Controller = Gemmini.Controller
module Span = Gem_sim.Span
module P = Gem_obs.Profile

type result = {
  sc_completions : Slo.completion list;
  sc_dispatches : (int * int list) list;
}

type state = {
  arrivals : Arrival.request array;
  policy : Batch.policy;
  sessions : Runtime.session array;
  mutable next : int;  (** first undispatched arrival *)
  mutable completions : Slo.completion list;  (** newest first *)
  mutable dispatches : (int * int list) list;  (** newest first *)
}

let marker f = Gem_sw.Kernels.single (Soc.Marker f)

(* One request: open a "request" span on the core's host track, run the
   inference, then record the completion at the core's finish horizon.
   The open marker reads the horizon at execution time, so queueing delay
   (arrival to start) is measured, not assumed. *)
let request_pieces st session (rq : Arrival.request) =
  let name = Printf.sprintf "req%d" rq.Arrival.rq_id in
  let started = ref 0 in
  let open_piece =
    marker (fun core ->
        let ctrl = Soc.controller core in
        let t = Controller.finish_time ctrl in
        started := t;
        Span.emit_open (Controller.engine ctrl)
          ~component:(Controller.host_component ctrl)
          ~time:t ~cat:"request"
          ~args:[ ("arrival", string_of_int rq.Arrival.rq_arrival) ]
          name)
  in
  let close_piece =
    marker (fun core ->
        let ctrl = Soc.controller core in
        let t = Controller.finish_time ctrl in
        Span.emit_close (Controller.engine ctrl)
          ~component:(Controller.host_component ctrl)
          ~time:t name;
        st.completions <-
          {
            Slo.c_id = rq.Arrival.rq_id;
            c_core = Soc.core_id core;
            c_arrival = rq.Arrival.rq_arrival;
            c_start = !started;
            c_finish = t;
          }
          :: st.completions)
  in
  Seq.cons open_piece
    (Seq.append
       (Runtime.request_steps session ~records:(ref []))
       (Seq.return close_piece))

(* The per-core decision loop, as the pieces of the core's program. A
   node is forced exactly when the core has drained its previous work, so
   all shared-queue reads/writes happen in simulated-time order (see the
   interface comment). Decisions are forced inside the program's refill,
   outside the soc.dispatch probe, so the scheduler carries its own
   phase. *)
let rec core_pieces st i () =
  if !P.on then P.enter P.schedule;
  let node = core_decide st i in
  if !P.on then P.leave P.schedule;
  node

and core_decide st i =
  if st.next >= Array.length st.arrivals then Seq.Nil
  else begin
    let session = st.sessions.(i) in
    let ctrl = Soc.controller (Runtime.session_core session) in
    let free = Controller.finish_time ctrl in
    let head = st.arrivals.(st.next).Arrival.rq_arrival in
    if head > free then
      (* Nothing has arrived yet: park at the arrival cycle and re-decide.
         advance_to charges no host cycles, so an idle core accrues wall
         time but no utilization. *)
      Seq.Cons
        ( marker (fun core ->
              Controller.advance_to (Soc.controller core) ~cycle:head),
          core_pieces st i )
    else begin
      let k, start =
        Batch.form st.policy ~arrivals:st.arrivals ~next:st.next ~free
      in
      let batch = Array.sub st.arrivals st.next k in
      st.next <- st.next + k;
      st.dispatches <-
        (i, Array.to_list (Array.map (fun r -> r.Arrival.rq_id) batch))
        :: st.dispatches;
      (* Deadline batches may start after [free] (waiting for members);
         model the hold as idle time before the first request opens. *)
      let lead =
        marker (fun core ->
            Controller.advance_to (Soc.controller core) ~cycle:start)
      in
      Seq.Cons
        ( lead,
          Seq.append
            (Seq.concat_map (request_pieces st session) (Array.to_seq batch))
            (core_pieces st i) )
    end
  end

let run soc ~sessions ~arrivals ~policy =
  let cores = Array.length (Soc.cores soc) in
  if Array.length sessions <> cores then
    invalid_arg "Sched.run: need one session per core";
  let st =
    { arrivals; policy; sessions; next = 0; completions = []; dispatches = [] }
  in
  ignore
    (Soc.run_parallel soc
       (Array.init cores (fun i -> Soc.program (core_pieces st i))));
  {
    sc_completions = List.rev st.completions;
    sc_dispatches = List.rev st.dispatches;
  }
