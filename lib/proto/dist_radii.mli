(** Distributed computation of the ball radii r_u(j).

    Every node floods its id with exact accumulated distance (an
    all-sources asynchronous Bellman-Ford); at quiescence each node knows
    its distance to every other node and reads off r_u(j) — the radius of
    its smallest ball holding 2^j nodes — locally. This is the flooding
    realization of the "each node knows its distance profile" assumption
    the Packing Lemma's construction starts from; the message count is the
    honest price of that knowledge (Theta(n m) deliveries, the same work as
    n shortest-path trees). *)

type result = {
  distances : float array array;  (** distances.(u).(x) = d(u, x) *)
  stats : Network.stats;
}

(** [run g] floods to quiescence. [via] selects the transport (default
    [Network.local ()]); the relaxation guard keeps the handler
    idempotent, so any at-least-once transport yields the same profiles.
    Raises [Network.Protocol_error] (protocol ["dist_radii"]) past
    1000 + 400n² messages. *)
val run :
  ?via:Network.runner ->
  Cr_metric.Graph.t ->
  result

(** [radius_of_size distances u size] is r_u for a ball of [size] nodes,
    computed from a node's local distance profile. *)
val radius_of_size : float array array -> int -> int -> float
