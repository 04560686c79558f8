(** Deterministic, seeded fault plans.

    A plan describes *which* faults happen: per-edge message drops,
    duplicate deliveries, delay inflation, and node crash/recover windows.
    [hooks] compiles it into the interposition points
    [Cr_proto.Network.fault_hooks] consults on every send and delivery.
    Every random decision is keyed splitmix64 over
    (seed, src, dst, per-edge message index) — see
    {!Cr_graphgen.Splitmix} — so a plan replays identically across runs,
    pool sizes, and re-instantiations.

    The static samplers at the bottom pick edge/node failure sets for
    degraded-mode *routing* experiments (Cr_sim.Failures); they share the
    keyed-decision discipline but are independent of message traffic. *)

type crash = {
  node : int;
  down_at : float;
  up_at : float;  (** the node recovers (state intact) at [up_at] *)
}

type t = {
  seed : int;
  drop : float;  (** per-message drop probability *)
  duplicate : float;  (** probability a message gets one extra copy *)
  delay_prob : float;  (** probability a copy's delay is inflated *)
  delay_factor : float;
      (** inflated copies take [delay * (1 + U * delay_factor)], U in [0,1) *)
  crashes : crash list;
  edge_drop : ((int * int) * float) list;
      (** per-edge drop overrides (symmetric; override [drop] entirely) *)
}

(** [make ~seed ()] validates and builds a plan (all fault rates default
    to zero). Raises [Invalid_argument] on probabilities outside [0, 1],
    negative delay factors, or empty/negative crash windows. *)
val make :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_prob:float ->
  ?delay_factor:float ->
  ?crashes:crash list ->
  ?edge_drop:((int * int) * float) list ->
  seed:int ->
  unit ->
  t

(** [hooks t] compiles the plan into simulator hooks. Each call returns a
    fresh per-edge message-index state, so one plan value can drive many
    independent networks reproducibly. *)
val hooks : t -> Cr_proto.Network.fault_hooks

(** One-line human rendering for CLI output. *)
val describe : t -> string

(** [sample_edge_failures ~seed ~rate g] fails each undirected edge
    independently with probability [rate]; returned as [(u, v)] with
    [u < v], in [Graph.edges] order. *)
val sample_edge_failures :
  seed:int -> rate:float -> Cr_metric.Graph.t -> (int * int) list

(** [sample_node_failures ~seed ~fraction n] fails each node independently
    with probability [fraction], ascending; [protect] lists nodes exempt
    from failure (e.g. a route's endpoints). *)
val sample_node_failures :
  ?protect:int list -> seed:int -> fraction:float -> int -> int list
