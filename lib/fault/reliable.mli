(** Hardened at-least-once transport: ack/retransmit with capped
    exponential backoff, run over a fault {!Plan}.

    [runner] produces a [Cr_proto.Network.runner], so any protocol that
    executes through the runner interface (all of [Cr_proto]'s
    constructions) can run unchanged over a lossy, duplicating, delaying,
    crash-prone network. Every logical send is framed as a [Data] packet,
    acked by the receiver, and retransmitted by a local timer until acked
    or until [max_attempts] is exhausted — at which point the run fails
    with a typed [Network.Protocol_error] instead of hanging or returning
    wrong tables.

    The transport deliberately keeps {e no receiver-side dedup}: the
    protocols' improve-or-ignore guards make duplicate deliveries no-ops,
    and per-receiver dedup state would cost more memory than the tables
    being built. Handlers driven through this runner must therefore be
    idempotent — all of [Cr_proto]'s are, and the test suite asserts the
    resulting tables equal the fault-free ones. Timers (and kickoff boots)
    survive crash windows by deferral, so a crash-recover node resumes
    retransmitting where it left off (durable-state fail-recover model). *)

type budget = {
  max_attempts : int;  (** attempts per logical send before giving up *)
  rto : float;  (** first timeout, as a multiple of the edge round-trip *)
  backoff : float;  (** timeout growth factor per attempt (>= 1) *)
  rto_cap : float;  (** timeout ceiling, as a multiple of the round-trip *)
}

(** Accumulated transport accounting across every execution of this
    transport value (reset with {!reset}). *)
type totals = {
  data : int;  (** first-attempt data sends *)
  retransmits : int;
  acks : int;
  raw_messages : int;  (** simulator deliveries, transport overhead included *)
  timer_fires : int;
  faults : Cr_proto.Network.fault_counts;
}

type t

(** [create ()] builds a transport; [plan] defaults to no faults (the
    transport still acks and retransmits — the zero-fault overhead is
    measurable), [budget] to {!default_budget}. [cost] (default
    disabled) accumulates CONGEST cost of the {e framed} traffic: every
    [Data]/[Ack] packet is charged its transport header (tag, 32-bit
    sequence number, source id) plus the inner message's measured bits,
    so a lossy plan's retransmissions appear as extra cost over a
    fault-free run of the same protocol. *)
val create :
  ?plan:Plan.t ->
  ?budget:budget ->
  ?jitter:int * float ->
  ?obs:Cr_obs.Trace.context ->
  ?cost:Cr_obs.Cost.t ->
  unit ->
  t

val totals : t -> totals
val reset : t -> unit

(** [runner t] is the transport as a protocol runner; pass it as [?via] to
    the [Cr_proto] constructions. The raw event budget is scaled from the
    inner [max_messages] so the caller's budget keeps its logical
    meaning. *)
val runner : t -> Cr_proto.Network.runner
