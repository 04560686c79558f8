(** A packet walking the graph, with exact cost/hop accounting.

    Every routing scheme executes its decisions through a walker, so that
    measured route cost is the true distance traveled in the graph (not the
    metric shortcut the analysis would charge). A hop budget guards against
    scheme bugs that would loop forever. *)

type t

exception Hop_budget_exhausted

(** Raised by {!step} / {!teleport} when the attempted move touches a
    failed edge or node ({!Failures}): the packet has NOT moved and no
    cost was charged — the scheme catches this and reroutes (degraded
    mode), re-entering its search from the current position. *)
exception Blocked of { src : int; dst : int }

(** [create ?obs m ~start ~max_hops] places a packet at [start]. [obs]
    (default: the {!Cr_obs.Trace} global context) receives one route event
    per step/charge/teleport, tagged with the current {!phase}.
    [failures] (default {!Failures.none}) makes moves onto failed
    edges/nodes raise {!Blocked}; a failed start node is rejected
    outright.

    [cost] (default disabled) reuses the protocol simulator's
    {!Cr_obs.Cost} per-edge accounting for routed traffic: every {!step}
    charges one message of [hop_bits] bits (default 0 — hop counting
    only) to the traversed edge, with round = hop index and phase = the
    current route phase's label; {!teleport} charges the phase totals
    but no edge. {!charge} is analytic cost, not traffic, and charges
    nothing.

    [live] (default disabled) mirrors the same per-edge charge into a
    {!Cr_obs.Live} streaming-telemetry window on every {!step}; the
    route lifecycle ([Live.tick] before the route, [Live.record] with
    its outcome after) stays with the caller. Like trace sinks, a live
    accumulator is mutated from the calling domain and must not be
    shared with pooled routing. *)
val create :
  ?obs:Cr_obs.Trace.context -> ?failures:Failures.t ->
  ?cost:Cr_obs.Cost.t -> ?hop_bits:int -> ?live:Cr_obs.Live.t ->
  Cr_metric.Metric.t -> start:int -> max_hops:int -> t

(** [obs w] is the walker's observability context. *)
val obs : t -> Cr_obs.Trace.context

(** [phase w] is the paper phase hops are currently attributed to
    ([Unphased] until a scheme sets one). *)
val phase : t -> Cr_obs.Trace.phase

val set_phase : t -> Cr_obs.Trace.phase -> unit

(** [with_phase w p f] runs [f] with hops attributed to [p] — unless a
    phase is already active, in which case the outer attribution wins (an
    underlying labeled scheme running inside a name-independent search
    keeps the search's tag). The phase is restored even if [f] raises. *)
val with_phase : t -> Cr_obs.Trace.phase -> (unit -> 'a) -> 'a

(** [position w] is the packet's current node. *)
val position : t -> int

(** [cost w] is the total distance traveled so far. *)
val cost : t -> float

(** [hops w] is the number of graph edges traversed so far. *)
val hops : t -> int

(** [step w v] moves the packet across the single graph edge to neighbor
    [v]. Raises [Invalid_argument] if [v] is not adjacent,
    [Hop_budget_exhausted] past the budget, and {!Blocked} if the edge or
    [v] is failed. *)
val step : t -> int -> unit

(** [walk_shortest_path w dst] moves the packet hop-by-hop along the
    canonical shortest path to [dst] (no-op if already there). *)
val walk_shortest_path : t -> int -> unit

(** [charge w c] adds cost [c] and one hop without moving the packet — used
    for virtual edges whose traversal cost is charged at an analytical bound
    (Definition 4.2 chain edges). [c] must be non-negative. *)
val charge : t -> float -> unit

(** [teleport w v ~cost] moves the packet to [v] adding the given cost and
    a single hop — used by baselines that model an out-of-band hand-off.
    Raises {!Blocked} if [v] is failed. *)
val teleport : t -> int -> cost:float -> unit

(** [trail w] is every node visited so far in order, starting with the
    start node (teleport targets included) — the raw data for route
    visualization and path assertions. *)
val trail : t -> int list

(** {1 Hop budgets}

    The [max_hops] every scheme gives a fresh walker, as a function of the
    node count: generous multiples of the worst route a correct scheme
    takes, so only a looping scheme ever exhausts them. *)

(** [labeled_budget n] is the labeled schemes' budget (Lemma 3.1 and
    Theorem 1.2): 10000 + 100n. *)
val labeled_budget : int -> int

(** [ni_budget n] is the name-independent schemes' budget (Theorems 1.4
    and 1.1), which pay several labeled routes per lookup: 50000 + 200n. *)
val ni_budget : int -> int

(** {1 Movement records}

    A routing loop written once moves its packet through a [mover]: bound
    to a walker by {!mover}, or to another executor with the same
    semantics (the serving engine's lean cursor, or a probe that stops at
    the first move). Every binding must apply the walker's exact float
    operations in the same order, so costs and hop counts agree. *)
type mover = {
  position : unit -> int;  (** the packet's current node *)
  cost : unit -> float;  (** the distance travelled so far *)
  step : int -> unit;  (** one graph edge, as {!step} *)
  jump : int -> float -> unit;  (** an out-of-band move, as {!teleport} *)
  path : int -> unit;
      (** the canonical shortest path, as {!walk_shortest_path} *)
  phase : 'a. Cr_obs.Trace.phase -> (unit -> 'a) -> 'a;
      (** outer-wins phase scoping, as {!with_phase} *)
}

(** [mover w] moves walker [w]. *)
val mover : t -> mover
