(** Structured tracing for route execution, scheme construction, and the
    distributed simulator.

    The unit of observation is the {!event}: a timestamped span boundary,
    counter, per-hop route event (tagged with the paper phase that caused
    it), or protocol message delivery. Events flow into a pluggable
    {!sink}; a disabled {!context} (the default) reduces every
    instrumentation point to a single boolean test, so uninstrumented runs
    pay essentially nothing.

    Contexts are passed explicitly ([?obs] parameters throughout the
    library); callers that don't care pass nothing and get {!null}. *)

(** The algorithmic phase a route event belongs to, mirroring the paper's
    execution traces: Figure 1's zooming sequence with per-level ball
    searches (name-independent schemes) and Figure 2's net / Voronoi-tree /
    search-tree phases (labeled schemes). [Deliver] is the final descent to
    the destination once its label is known; [Fallback] marks hops off the
    theorem's fast path; [Teleport] tags out-of-band hand-offs that occur
    outside any phase; [Faults] tags every hop taken after a degraded-mode
    reroute (Cr_sim.Walker failover), so stretch inflation under failures
    is attributable hop by hop. *)
type phase =
  | Unphased
  | Zoom of int  (** climbing to the level-[i] hub of the zooming sequence *)
  | Ball_search of int  (** SearchTree round trip at level [i] *)
  | Net_phase  (** greedy ring/net descent of the labeled schemes *)
  | Voronoi_phase  (** Voronoi cell-tree climb and tree-route *)
  | Search_tree_phase  (** search tree II lookup *)
  | Teleport
  | Deliver
  | Fallback
  | Faults  (** hops taken after a failure-triggered reroute *)

(** [phase_label p] is a stable lowercase tag (no level), e.g. ["zoom"]. *)
val phase_label : phase -> string

(** [phase_level p] is the level parameter of [Zoom]/[Ball_search]. *)
val phase_level : phase -> int option

(** How a route event moved the packet: a real graph [Edge], or a [Jump]
    (teleport at a charged cost). *)
type hop_kind = Edge | Jump

val hop_kind_label : hop_kind -> string

type body =
  | Span_open of { name : string }
  | Span_close of { name : string }
  | Counter of { name : string; value : float }
  | Mark of { name : string }
  | Hop of {
      kind : hop_kind;
      src : int;
      dst : int;
      cost : float;
      total : float;  (** walker's cumulative cost after this hop *)
      phase : phase;
    }
  | Message of { node : int; round : int; time : float }

type event = { ts : float; body : body }

(** Where events go. *)
type sink = { emit : event -> unit }

type context

(** The disabled context: every [emit] is a no-op after one boolean test. *)
val null : context

(** [make ?clock sink] is an enabled context stamping events with [clock]
    (default {!wall_clock}). *)
val make : ?clock:(unit -> float) -> sink -> context

(** Wall-clock seconds (gettimeofday). *)
val wall_clock : unit -> float

(** [counting_clock ()] is a fresh deterministic clock returning 0, 1, 2,
    ... — used wherever traces must be byte-reproducible (golden tests,
    the exp_trace JSONL logs). *)
val counting_clock : unit -> unit -> float

(** [get_global ()] is the context an omitted [?obs] resolves to: always
    {!null}. *)
val get_global : unit -> context

(** [resolve obs] is [obs] if given, else {!null} — the standard way
    [?obs] parameters are defaulted throughout the library. *)
val resolve : context option -> context

val enabled : context -> bool

(** [emit ctx body] stamps and forwards an event; no-op when disabled.
    Hot paths should guard with [if enabled ctx then ...] so the event
    payload is never even allocated. *)
val emit : context -> body -> unit

(** [span ctx name f] runs [f] between [Span_open]/[Span_close] events
    (close is emitted even if [f] raises). *)
val span : context -> string -> (unit -> 'a) -> 'a

val counter : context -> string -> float -> unit

val hop :
  context ->
  kind:hop_kind ->
  src:int ->
  dst:int ->
  cost:float ->
  total:float ->
  phase:phase ->
  unit

val message : context -> node:int -> round:int -> time:float -> unit
