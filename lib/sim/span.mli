(** Hierarchical spans over the engine's event stream.

    A span is a named interval of simulated time (begin/end cycle stamps)
    with a parent link and free-form attributes. Components open and close
    spans by emitting {!Engine.Span_open}/{!Engine.Span_close} events —
    usually via {!emit_open}/{!emit_close}, which only advance the clock
    unless the engine is {!Engine.live} — and a recorder fed those events
    follows the tree:

    {v network > layer > kernel > ISA command v}

    Nesting is tracked per {e scope}: the [coreN] prefix of the component
    name. Each scope keeps its own stack of open spans, so interleaved
    multi-core runs cannot cross-link one core's commands under another
    core's layer. Events from shared, unprefixed components ([l2],
    [dram], ...) attach to the scope that opened a span most recently —
    correct here because cores execute one operation at a time.

    Close events are matched by name against the scope's stack. A close
    with no matching open is counted as an {e orphan} and ignored; a close
    that skips over inner open spans force-closes them (counted in
    {!forced_closes}), so one missing close cannot corrupt the rest of the
    tree.

    The recorder keeps only its open-span stacks: it reports every open
    and close to an {!observer} as it happens and drops a span once it is
    closed, so live memory is bounded by nesting depth, not run length.
    {!Export} is the observer behind every trace and profile. *)

type span = {
  id : int;  (** index in opening order; stable span identifier *)
  parent : int;  (** [id] of the enclosing span, [-1] for roots *)
  name : string;
  cat : string;  (** hierarchy level: network/layer/kernel/command/... *)
  component : string;  (** the track the span renders on *)
  t0 : Time.cycles;
  mutable t1 : Time.cycles;  (** [-1] while the span is still open *)
  args : (string * string) list;
}

type observer = {
  on_open : span -> unit;  (** right after the span is pushed ([t1 = -1]) *)
  on_close : span -> unit;
      (** right after its end stamp is set, whether by a matching close, a
          skipping close or {!finalize} *)
}

type t
(** A span recorder; feed it events via {!on_event}, usually as an
    {!Engine.add_sink} sink. *)

val create : observer -> t

val on_event : t -> Engine.event -> unit
(** Processes one event; non-span events are ignored. *)

val finalize : t -> horizon:Time.cycles -> unit
(** Force-closes every still-open span at [horizon] (counted in
    {!forced_closes}) and empties the stacks. Scopes are visited in sorted
    order, innermost span first, so the [on_close] order is deterministic.
    Call once after a run; spans a fault aborted mid-flight then still
    carry an end stamp. *)

(* --- emission helpers --------------------------------------------------- *)

val emit_open :
  Engine.t ->
  component:string ->
  time:Time.cycles ->
  ?cat:string ->
  ?args:(string * string) list ->
  string ->
  unit
(** Emits [Span_open] when the engine is {!Engine.live}; otherwise only
    advances the clock to [time] ({!Engine.observe}). [cat] defaults to ["span"]. Call sites on hot paths should
    additionally guard argument construction behind {!Engine.live}. *)

val emit_close : Engine.t -> component:string -> time:Time.cycles -> string -> unit

(* --- accessors ----------------------------------------------------------- *)

val count : t -> int
(** Spans opened so far; ids are [0 .. count - 1]. *)

val open_count : t -> int
(** Spans currently open across all scopes. *)

val orphan_closes : t -> int
(** Closes that matched no open span and were dropped. *)

val forced_closes : t -> int
(** Spans closed implicitly by a skipping close or by {!finalize}. *)
