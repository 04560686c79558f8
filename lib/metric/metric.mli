(** The shortest-path metric induced by a weighted graph (Section 2).

    A [Metric.t] packages a connected graph together with its all-pairs
    shortest-path distances, one shortest-path forest per source (for
    next-hop queries), and each node's neighbour order: all node ids
    sorted by (distance from it, id). The Packing Lemma's balls of 2^j
    nodes and their radii r_u(j) are prefixes of that order, so
    {!nearest_k} is an O(k) copy and {!radius_of_size} an O(1) read.

    Following the paper's normalization, [of_graph] rescales edge weights so
    that the minimum pairwise distance is exactly 1; the normalized diameter
    Delta is then simply the largest pairwise distance. *)

type t

(** [of_graph g] builds the metric of [g], normalizing weights so the
    minimum pairwise distance is 1. Raises [Invalid_argument] if [g] is
    disconnected or has fewer than 2 nodes.

    The minimum pairwise distance is the lightest edge weight
    ({!Graph.min_edge_weight}), so [g] is rescaled first and the metric is
    built once. The n per-source Dijkstra runs and the n neighbour-order
    sorts fan out over [pool] (default {!Cr_par.Pool.default}); the result
    is bit-identical whatever the pool size — see [Cr_par.Pool] for the
    determinism contract. *)
val of_graph : ?pool:Cr_par.Pool.t -> Graph.t -> t

(** [of_graph_unnormalized g] skips the rescaling (used by tests that need
    to control weights exactly). *)
val of_graph_unnormalized : ?pool:Cr_par.Pool.t -> Graph.t -> t

(** [graph m] is the (possibly rescaled) underlying graph. *)
val graph : t -> Graph.t

(** [n m] is the number of nodes. *)
val n : t -> int

(** [dist m u v] is d(u, v). *)
val dist : t -> int -> int -> float

(** [diameter m] is the largest pairwise distance. *)
val diameter : t -> float

(** [min_distance m] is the smallest positive pairwise distance
    (1 after normalization, up to rounding). *)
val min_distance : t -> float

(** [normalized_diameter m] is Delta = diameter / min_distance. *)
val normalized_diameter : t -> float

(** [levels m] is ceil(log2 Delta), the number of net levels above level 0
    in the 2^i-net hierarchy: level indices run over [0 .. levels m]. It is
    at least 1 (like [Cr_scale.Oracle.levels_upper]): when every pairwise
    distance is equal (Delta = 1), level 0 already holds every node, and
    the singleton top net needs a level above it. *)
val levels : t -> int

(** [ball m ~center ~radius] is B_center(radius) = all nodes within distance
    [radius] of [center], sorted by id. *)
val ball : t -> center:int -> radius:float -> int list

(** [ball_size m ~center ~radius] is |B_center(radius)|. *)
val ball_size : t -> center:int -> radius:float -> int

(** [radius_of_size m u size] is r_u(j) for [size = 2^j]: the smallest
    radius [r] such that |B_u(r)| >= [size] (Section 2 uses exact equality;
    with distance ties the ball can overshoot, so we use the least radius
    reaching the required size). It is the distance from [u] to the
    [size]-th node of [u]'s neighbour order: an O(1) read. Raises
    [Invalid_argument] if [size > n] or [size < 1]. *)
val radius_of_size : t -> int -> int -> float

(** [nearest_k m u k] is the canonical ball of exactly [k] nodes around
    [u]: the [k] nodes closest to [u] (including [u] itself), ties broken by
    least id, sorted by (distance, id). The Packing Lemma's balls of size
    2^j are realized this way so that distance ties cannot inflate them.
    It is the first [k] entries of [u]'s neighbour order, copied in O(k).
    Raises [Invalid_argument] if [k > n] or [k < 1]. *)
val nearest_k : t -> int -> int -> int list

(** [nearest_in m u candidates] is the candidate minimizing d(u, -), ties
    broken by least id (the paper's tie-breaking rule for zooming
    sequences). Raises [Invalid_argument] on an empty candidate list. *)
val nearest_in : t -> int -> int list -> int

(** [next_hop m ~src ~dst] is the neighbor of [src] that begins the
    canonical shortest path from [src] to [dst]. Raises [Invalid_argument]
    if [src = dst]. *)
val next_hop : t -> src:int -> dst:int -> int

(** [shortest_path m ~src ~dst] is the canonical shortest path, inclusive of
    both endpoints. *)
val shortest_path : t -> src:int -> dst:int -> int list

(** [first_hops m ~src] is the whole next-hop row of [src] at once:
    a fresh array [h] with [h.(dst) = next_hop m ~src ~dst] for every
    [dst <> src] and [h.(src) = -1]. Computed in one O(n) walk of the
    canonical shortest-path forest, each predecessor chain memoized
    (agreeing hop-for-hop with {!next_hop}): the bulk primitive the
    route-serving engine compiles full next-hop tables from. *)
val first_hops : t -> src:int -> int array
