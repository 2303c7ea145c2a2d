(** The serving scheduler: shards an arrival stream across the SoC's
    cores on the cycle-accurate backend.

    Each core runs a lazy decision loop as the pieces of its
    {!Gem_soc.Soc.program}: whenever the core drains its current work, the
    program's refill forces the next piece, which is decided {e at force
    time} from the shared admission queue.
    Because the interleaver always advances the core whose issue cursor is
    earliest, decisions are serialized in nondecreasing simulated-time
    order — a core that is free {e parks} at the next arrival cycle (via
    {!Gemmini.Controller.advance_to}) and re-decides, so competing idle
    cores converge on the arrival and the interleaver's lowest-index
    tie-break picks the winner deterministically.

    Requests dispatched in one batch execute back-to-back on their core;
    every request is a full inference via {!Gem_sw.Runtime.request_steps},
    wrapped in a ["request"]-category span on the core's host track so
    traces read request > network > layer > ... *)

type result = {
  sc_completions : Slo.completion list;
      (** in completion (simulated-time) order *)
  sc_dispatches : (int * int list) list;
      (** (core, request ids) per batch, in dispatch order *)
}

val run :
  Gem_soc.Soc.t ->
  sessions:Gem_sw.Runtime.session array ->
  arrivals:Arrival.request array ->
  policy:Batch.policy ->
  result
(** [sessions] must hold one session per SoC core (index = core id);
    [arrivals] must be sorted by [rq_arrival] and carry {e absolute}
    cycles (already offset by the warm-start base, if any). Runs the SoC
    until every request completes: one {!Gem_soc.Soc.program} per core,
    interleaved by {!Gem_soc.Soc.run_parallel}. *)
