(** A packet walking the graph, with exact cost/hop accounting.

    The walker is the only thing that moves a packet. Every scheme's
    forwarding rule, in [Cr_core] and in the serving engine alike, calls
    {!step}, {!teleport} and {!walk_shortest_path} on a walker, so the
    measured route cost is the true distance traveled in the graph (not
    the metric shortcut the analysis would charge), and a walked, a served
    and a next-hop route share every float operation. A hop budget guards
    against scheme bugs that would loop forever.

    A hop reports itself from here, once, to each enabled observer: a
    {!Cr_obs.Trace} hop event (the node sequence of a route is read back
    from these, see [Cr_core.Route_trace.nodes]), a {!Cr_obs.Cost} message
    for a {!step} or a {!teleport}, and a {!Cr_obs.Live} edge charge for a
    {!step}. A {!step} allocates nothing when the walker is untraced and
    has no failures. *)

type t

exception Hop_budget_exhausted

(** Raised by {!step} / {!teleport} when the attempted move touches a
    failed edge or node ({!Failures}): the packet has NOT moved and no
    cost was charged — the scheme catches this and reroutes (degraded
    mode), re-entering its search from the current position. *)
exception Blocked of { src : int; dst : int }

(** [create ?obs m ~start ~max_hops] places a packet at [start]. [obs]
    (default: the {!Cr_obs.Trace} global context) receives one route event
    per step/teleport, tagged with the current {!phase}.
    [failures] (default {!Failures.none}) makes moves onto failed
    edges/nodes raise {!Blocked}; a failed start node is rejected
    outright. Failure sets are immutable, so an empty one is recognized
    here, once, and its walker skips the failure checks.

    [cost] (default disabled) reuses the protocol simulator's
    {!Cr_obs.Cost} per-edge accounting for routed traffic: every {!step}
    charges one message of 0 bits (hop counting only) to the traversed
    edge, with round = hop index and phase = the current route phase's
    label; {!teleport} charges the phase totals but no edge.

    [live] (default disabled) mirrors the same per-edge charge into a
    {!Cr_obs.Live} streaming-telemetry window on every {!step}; the
    route lifecycle ([Live.tick] before the route, [Live.record] with
    its outcome after) stays with the caller. Like trace sinks, a live
    accumulator is mutated from the calling domain and must not be
    shared with pooled routing. *)
val create :
  ?obs:Cr_obs.Trace.context -> ?failures:Failures.t ->
  ?cost:Cr_obs.Cost.t -> ?live:Cr_obs.Live.t ->
  Cr_metric.Metric.t -> start:int -> max_hops:int -> t

(** [phase w] is the paper phase hops are currently attributed to
    ([Unphased] until a scheme sets one). *)
(* cr_lint: allow dead-export -- test hook: test_obs checks with_phase's scoping with it *)
val phase : t -> Cr_obs.Trace.phase

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
    [v] is failed. None of these moves the packet, and the last one
    charges nothing. Allocates nothing when the walker is untraced and
    has no failures. *)
val step : t -> int -> unit

(** [walk_shortest_path w dst] moves the packet hop-by-hop along the
    canonical shortest path to [dst] (no-op if already there). *)
val walk_shortest_path : t -> int -> unit

(** [teleport w v ~cost] moves the packet to [v] adding the given cost and
    a single hop — a search tree's virtual leg, or a baseline's
    out-of-band hand-off. Raises {!Blocked} if [v] is failed, leaving the
    walker as it was. *)
val teleport : t -> int -> cost:float -> unit

(** {1 Hop budgets}

    The [max_hops] every scheme gives a fresh walker, as a function of the
    node count: generous multiples of the worst route a correct scheme
    takes, so only a looping scheme ever exhausts them. *)

(** [labeled_budget n] is every labeled route's budget, the paper's
    schemes (Lemma 3.1 and Theorem 1.2) and the baselines alike:
    10000 + 100n. *)
val labeled_budget : int -> int

(** [ni_budget n] is the name-independent schemes' budget (Theorems 1.4
    and 1.1), which pay several labeled routes per lookup: 50000 + 200n. *)
val ni_budget : int -> int
