(** Zooming sequences (Section 2).

    For a node u: u(0) = u and u(i) is the node of Y_i nearest to u(i-1)
    (ties to the least id). Eqn (2) bounds the zigzag cost:
    sum_k d(u(k-1), u(k)) < 2^(i+1). *)

type t

(** [build h] precomputes every node's zooming sequence. *)
val build : Hierarchy.t -> t

(** [step z u i] is u(i); [step z u 0 = u]. Raises [Invalid_argument] for
    out-of-range levels. *)
val step : t -> int -> int -> int

(** [climb_cost z u i] is sum_{k=1..i} d(u(k-1), u(k)), the exact cost of
    walking the zooming sequence up to level [i] (bounded by Eqn 2). *)
val climb_cost : t -> int -> int -> float
