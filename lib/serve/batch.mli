(** Admission-queue batching policies.

    The admission queue is a FIFO: a batch is always a contiguous prefix
    of the undispatched requests, so no request is ever reordered past a
    later one. A policy only decides {e how many} queued requests ride
    together and {e when} the batch starts. *)

type policy =
  | No_batch  (** every request dispatches alone ([Fixed 1]) *)
  | Fixed of int
      (** greedy size-capped batching: take every request already waiting
          when the core frees up, at most [n] of them; never waits for
          future arrivals *)
  | Deadline of { capacity : int; max_wait : Gem_sim.Time.cycles }
      (** dynamic batching: hold the queue head at most [max_wait] cycles
          to let up to [capacity] requests accumulate; the batch starts
          the moment it fills or the wait expires, whichever is first *)

val policy_of_string : string -> (policy, string) result
(** Parses ["none"], ["fixed:N"] and ["deadline:N:WAIT_US"] ([WAIT_US] in
    microseconds, i.e. thousands of cycles at 1 GHz). A [WAIT_US] that is
    negative, not finite, or whose cycle count reaches 2^62 is an
    [Error]. *)

val policy_to_string : policy -> string

val capacity : policy -> int
(** Upper bound on batch size (1 for {!No_batch}). *)

val form :
  policy ->
  arrivals:Arrival.request array ->
  next:int ->
  free:Gem_sim.Time.cycles ->
  int * Gem_sim.Time.cycles
(** [form p ~arrivals ~next ~free] decides the next batch for a core that
    becomes free at [free], where [arrivals] is the full arrival-sorted
    stream and [arrivals.(next)..] are still undispatched ([next] must be
    in bounds). Returns [(k, start)]: the batch is the [k] requests
    [arrivals.(next) .. arrivals.(next+k-1)] and it begins execution at
    [start].

    Invariants, for every policy: [1 <= k <= capacity p];
    [start >= free]; [start >= arrivals.(next+k-1).rq_arrival] (a batch
    cannot start before its last member exists). A {!Deadline} batch
    starts exactly at [max free arrivals.(next).rq_arrival + max_wait]
    unless it fills earlier, in which case it starts when the last seat
    is taken — the batcher is not an oracle, so a non-full batch always
    waits out its deadline. *)
