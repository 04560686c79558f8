(** CONGEST cost accounting: per-edge congestion, per-round message
    totals, and message-bit profiling for the distributed constructions
    and routed traffic (ROADMAP items 4 and 5).

    A {!t} is an accumulator threaded through [Cr_proto.Network] (via
    [?cost] on [Network.create] / [Network.local]) and [Cr_sim.Walker].
    Each delivered message is charged to an undirected edge, a
    construction {e phase} (the protocol stage that sent it), and a
    round; its size in bits comes from a per-protocol
    [measure : msg -> int] hook backed by [lib/codec]'s bitbuf
    encodings.

    Like {!Trace.context}, the accumulator follows the null-context
    pattern: {!null} is permanently disabled and {!record} on it is a
    no-op, so hot paths guard with [if Cost.enabled cost then ...] and
    pay one boolean test when accounting is off. All accessors return
    deterministically ordered data — accounting output is byte-identical
    across [CR_DOMAINS] settings and repeat runs. *)

type t

(** Aggregate load on one undirected edge [(u, v)] with [u < v]. *)
type edge_load = {
  u : int;
  v : int;
  messages : int;  (** deliveries across the edge, either direction *)
  bits : int;  (** total message bits across the edge *)
}

(** Totals for one construction phase (one protocol stage). *)
type phase_total = {
  phase : string;
  messages : int;
  bits : int;
  rounds : int;  (** 1 + the largest round seen in this phase; 0 if idle *)
  round_histogram : (int * int) list;  (** (round, messages), sorted *)
}

type summary = {
  total_messages : int;
  total_bits : int;
  total_rounds : int;  (** sum of per-phase round counts: phases run
                           sequentially, so this is the construction's
                           end-to-end round complexity *)
  max_edge_messages : int;  (** the congestion bound: max messages
                                crossing any single edge *)
  max_edge_bits : int;
}

(** The disabled accumulator: {!enabled} is [false], {!record} is a
    no-op, every accessor reports emptiness. *)
val null : t

(** A fresh enabled accumulator. *)
val create : unit -> t

val enabled : t -> bool

(** Raised by {!record} with the offending id when an edge endpoint is
    [2^31] or more: an edge cell is keyed by one int holding both
    endpoints in 31 bits each. *)
exception Node_id_too_large of int

(** [record t ~phase ~src ~dst ~round ~bits] charges one delivered
    message of [bits] bits to phase [phase] at round [round]. When
    [src >= 0], [dst >= 0], and [src <> dst], the message is also
    charged to the undirected edge [(src, dst)]; otherwise (external
    injections, teleports) only the phase totals move. No-op on a
    disabled accumulator.

    The enabled path is built for a caller that records many messages in
    a row under one phase string (the same physical string, as a
    protocol tag or a [Trace.phase_label] is) and one round: such a
    record finds its phase without hashing the string and counts its
    round without a table update. Any other sequence gives the same
    totals. Raises {!Node_id_too_large} when an edge endpoint does not
    fit in 31 bits. *)
val record : t -> phase:string -> src:int -> dst:int -> round:int -> bits:int -> unit

(** All touched edges, sorted by [(u, v)]. *)
val edge_loads : t -> edge_load list

(** [top_edges t ~k] is the [k] most congested edges: messages
    descending, then bits descending, then [(u, v)] ascending. *)
val top_edges : t -> k:int -> edge_load list

(** Phases in first-recorded order. *)
val phases : t -> phase_total list

val summary : t -> summary

(** Deterministic human-readable table: one row per phase plus a totals
    row — the canonical byte-comparable rendering used by tests and
    [crdemo cost]. *)
val render : t -> string
