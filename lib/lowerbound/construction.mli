(** The Theorem 1.3 lower-bound graph (Section 5.2, Figure 3).

    A tree: root u, and for each i in [p], j in [q] a path T_(i,j) of
    n^((iq+j+1)/(pq)) - n^((iq+j)/(pq)) nodes with internal edges of weight
    1/n, whose middle node hangs off the root by an edge of weight
    w_(i,j) = 2^i (q + j). Total size n, doubling dimension at most
    6 - log eps (Lemma 5.8), normalized diameter O(2^(1/eps) n).

    Any name-independent scheme with o(n^((eps/60)^2))-bit tables has
    stretch at least 9 - eps on this graph: the adversary can hide the
    target name in any path, so a cheap-table scheme must sweep the paths
    in increasing weight order and the sweep cost telescopes to 8x the
    distance (Claims 5.9-5.11).

    [build] takes p and q directly so experiments can run scaled-down
    instances; [of_epsilon] applies the paper's p = ceil(72/eps) + 6,
    q = ceil(48/eps) - 4. *)

type t

(** [build ~n ~p ~q] constructs the graph. Path sizes follow cumulative
    rounding of the n^(k/pq) boundaries, so they sum to exactly [n] with
    the root; paths that round to zero nodes are skipped. Requires
    [n >= 2], [p >= 1], [q >= 1]. *)
val build : n:int -> p:int -> q:int -> t

(** [of_epsilon ~epsilon ~n] uses the paper's parameters for
    [epsilon] in (0, 8). *)
val of_epsilon : epsilon:float -> n:int -> t

(** [graph t] is the weighted tree (root = node 0). *)
val graph : t -> Cr_metric.Graph.t

val p : t -> int
val q : t -> int

(** [path_nodes t ~i ~j] is the (possibly empty) id range of T_(i,j). *)
val path_nodes : t -> i:int -> j:int -> int list

(** [expected_dimension_bound ~epsilon] is 6 - log2 eps (Lemma 5.8). *)
val expected_dimension_bound : epsilon:float -> float
