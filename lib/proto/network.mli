(** An event-driven message-passing network simulator.

    Nodes hold protocol state and react to messages; a message sent across
    an edge is delivered after a delay equal to the edge weight (the
    standard asynchronous CONGEST-style cost model in which the paper's
    preprocessing would run). Delivery order is deterministic: by delivery
    time, ties by send order — one global sequence counter stamps every
    enqueue (sends, fault-injected duplicate copies, timers, and external
    [inject]s alike), so the tie-break stays total even when injects
    interleave with in-flight deliveries.

    The simulator is parametric in the protocol's message and state types;
    concrete protocols (distributed shortest-path trees, distributed r-net
    election) live in sibling modules. An optional {!fault_hooks} layer
    (driven by [Cr_fault.Plan]) interposes on every send and delivery:
    drops, duplicate copies, delay inflation, and node crash windows. *)

type ('msg, 'state) t

(** What a handler may do: read the clock, send to direct neighbors, and
    arm local timers.

    {!run} builds one [actions] per run and hands the same record to every
    handler call: [send] and [timer] act for the node being handled, and
    [run] sets [now] before each call. So a record is valid only during
    the handler call that received it: keeping it (or its closures) and
    using it after the handler returns acts for whichever node is
    handled at that point. [now] is mutable for [run]'s sake alone; a
    handler reads it. A wrapper such as [Cr_fault.Reliable] may build its
    own record around the one it received. *)
type 'msg actions = {
  mutable now : float;  (** the delivery time of the message handled *)
  send : int -> 'msg -> unit;
      (** [send neighbor msg]; raises [Invalid_argument] if the target is
          not adjacent to the handling node. Subject to the fault layer. *)
  timer : delay:float -> 'msg -> unit;
      (** [timer ~delay msg] delivers [msg] back to the handling node
          [delay] time units from now. Timers are local (never cross an
          edge) so the fault layer cannot drop them; if the node is down
          when one fires it is deferred to the recovery instant. *)
}

type stats = {
  messages : int;  (** total edge/external messages delivered *)
  makespan : float;  (** delivery time of the last event *)
}

(** A typed, diagnosable protocol failure: which protocol gave up, at which
    node, with the network statistics at that point. Replaces the bare
    [Failure] exits of the protocol modules so callers can distinguish a
    budget bug from a non-quiescent election from a covering-bound
    violation. *)
type protocol_error = {
  protocol : string;  (** e.g. ["dist_spt"], ["net_election.election"] *)
  node : int option;  (** the node at which the failure was detected *)
  stats : stats;  (** deliveries and makespan at the moment of failure *)
  detail : string;
}

exception Protocol_error of protocol_error

(** [error_message e] is a one-line human rendering (also installed as the
    [Printexc] printer for {!Protocol_error}). *)
val error_message : protocol_error -> string

(** Fault interposition, consulted by the simulator on every send and
    delivery. Implementations live in [Cr_fault.Plan]; the hooks may be
    stateful (per-edge message counters) but must be deterministic. *)
type fault_hooks = {
  copies : src:int -> dst:int -> delay:float -> float list;
      (** delivery delays for each copy of a sent message: [[]] drops it,
          [[delay]] passes it through, [[delay; d']] duplicates it, and any
          delay greater than the nominal one inflates that copy's latency.
          Delays must not shrink below the nominal edge delay. *)
  down_until : node:int -> time:float -> float option;
      (** [Some recovery] when the node is crashed at [time]; deliveries
          to it are lost (timers are deferred to [recovery] instead). *)
}

(** Per-network fault accounting, all zero when no hooks are installed. *)
type fault_counts = {
  sent_dropped : int;  (** sends the plan dropped outright *)
  sent_duplicated : int;  (** extra copies the plan enqueued *)
  sent_delayed : int;  (** sends with at least one inflated copy *)
  crash_lost : int;  (** deliveries lost because the target was down *)
  timers_deferred : int;
      (** timer fires and boot injections deferred past a crash window *)
}

(** [create g ~init] builds a quiescent network with per-node states.
    [jitter = (seed, magnitude)] perturbs every delivery delay by a
    deterministic pseudo-random factor in [1, 1 + magnitude): the
    asynchronous model guarantees only eventual delivery, so protocol
    *outcomes* must not depend on timing — the test suite runs the
    constructions under several jitter schedules and asserts identical
    results. [faults] interposes a fault plan on every send and delivery.
    [obs] (default: the global trace context) receives one [Message] event
    per delivery and, at quiescence, [network.messages] /
    [network.makespan] counters (plus [network.faults.*] when hooks are
    installed).

    [cost] (default {!Cr_obs.Cost.null}) accumulates CONGEST cost: every
    delivered edge/external message is charged to its protocol phase and
    round, edge messages also to their undirected edge, with a size of
    [measure msg] bits ([0] when no [measure] hook is given). The hot
    path pays a single boolean test when [cost] is disabled. *)
val create :
  ?obs:Cr_obs.Trace.context ->
  ?jitter:int * float ->
  ?faults:fault_hooks ->
  ?cost:Cr_obs.Cost.t ->
  ?measure:('msg -> int) ->
  Cr_metric.Graph.t ->
  init:(int -> 'state) ->
  ('msg, 'state) t

(** [state t v] reads a node's current state. *)
val state : ('msg, 'state) t -> int -> 'state

(** [deliveries t] is a copy of the per-node delivered-message counts
    accumulated so far — the load-balance view of a protocol run. *)
val deliveries : ('msg, 'state) t -> int array

(** [fault_counts t] is the fault-layer accounting so far. *)
val fault_counts : ('msg, 'state) t -> fault_counts

(** [timer_events t] is the number of timer fires so far (not counted in
    [stats.messages]). *)
val timer_events : ('msg, 'state) t -> int

(** [inject t ~dst msg] enqueues an external message (delivered at the
    current simulation time; used to kick off protocols). Injected
    messages bypass the fault layer's send hook and are deferred — not
    lost — when the target is inside a crash window (they model local
    boot events, not edge traffic), but they share the global sequence
    counter, so an inject racing an in-flight delivery at the same
    instant still resolves by send order. *)
val inject : ('msg, 'state) t -> dst:int -> 'msg -> unit

(** [run t ~handler ~max_messages] delivers messages until quiescence:
    [handler actions ~self state msg] returns the node's next state.
    Raises {!Protocol_error} (tagged with [protocol], default
    ["network"]) if more than [max_messages] deliveries plus timer fires
    occur — the budget boundary is exact: a protocol delivering exactly
    [max_messages] events completes. Returns delivery statistics. [run]
    may be called again after further [inject]s; statistics accumulate. *)
val run :
  ?protocol:string ->
  ('msg, 'state) t ->
  handler:('msg actions -> self:int -> 'state -> 'msg -> 'state) ->
  max_messages:int ->
  stats

(** How a protocol's messages actually travel. Concrete protocols
    (Dist_spt, Net_election, ...) describe themselves as
    (init, handler, kickoff) and execute through a runner: {!local} is the
    plain simulator; [Cr_fault.Reliable.runner] is the hardened
    ack/retransmit transport over a fault plan. [execute] returns the
    final per-node states and the run statistics. *)
type runner = {
  execute :
    'msg 'state.
    ?measure:('msg -> int) ->
    Cr_metric.Graph.t ->
    protocol:string ->
    init:(int -> 'state) ->
    handler:('msg actions -> self:int -> 'state -> 'msg -> 'state) ->
    kickoff:(int * 'msg) list ->
    max_messages:int ->
    'state array * stats;
}

(** [local ()] is the default fault-free runner (optionally jittered).
    [cost] threads a {!Cr_obs.Cost} accumulator into every execution;
    the protocols pass their [Wire]-measured [measure] hooks through
    [execute], so a costed runner sees real message bits. *)
val local :
  ?obs:Cr_obs.Trace.context ->
  ?jitter:int * float ->
  ?cost:Cr_obs.Cost.t ->
  unit ->
  runner
