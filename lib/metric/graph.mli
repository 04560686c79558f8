(** Connected, edge-weighted, undirected graphs with nodes [0 .. n-1].

    This is the network substrate every routing scheme in this repository
    operates on: the paper's input is "a connected, edge-weighted, undirected
    graph G with n nodes" (Section 2). Edge weights must be strictly
    positive.

    Each node's adjacency is a row: a flat [int array] of neighbour ids
    and a [float array] of weights, in insertion order, growing by
    doubling. The shortest-path kernels ([Dijkstra], [Bounded])
    read the rows directly through {!row_ids} and {!row_weights}, so a
    relaxation allocates nothing.

    Three orders are part of the contract, because callers replay them:
    - {!neighbors} lists a node's neighbours in insertion order;
    - {!iter_neighbors} visits them in reverse insertion order (the
      distributed protocols send their messages in this order, so E19's
      exact message counts depend on it);
    - {!edges} lists each edge once, by ascending lower endpoint [u], then
      in [u]'s insertion order ([Graph_io.to_string] and {!scale} replay
      it). *)

type t

type edge = { u : int; v : int; w : float }

(** [create n] is a graph on [n] nodes (numbered [0 .. n-1]) and no edges.
    Raises [Invalid_argument] if [n <= 0]. *)
val create : int -> t

(** [add_edge g u v w] adds the undirected edge [{u,v}] of weight [w],
    appending [v] to [u]'s row and then [u] to [v]'s. Raises
    [Invalid_argument] with ["Graph.add_edge: endpoint out of range"],
    ["Graph.add_edge: self-loop"], ["Graph.add_edge: weight must be
    positive and finite"] or ["Graph.add_edge: duplicate edge"], checked
    in that order. *)
val add_edge : t -> int -> int -> float -> unit

(** [n g] is the number of nodes. *)
val n : t -> int

(** [num_edges g] is the number of (undirected) edges. *)
val num_edges : t -> int

(** [neighbors g u] is the list of [(v, w)] pairs adjacent to [u],
    in insertion order. *)
val neighbors : t -> int -> (int * float) list

(** [iter_neighbors g u f] applies [f v w] to every neighbor of [u], in
    reverse insertion order. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

(** [degree g u] is the number of edges incident to [u]: the length of
    the valid prefix of [u]'s rows. *)
val degree : t -> int -> int

(** [row_ids g u] is [u]'s neighbour-id row: [(row_ids g u).(i)] for
    [i < degree g u] is [u]'s [i]-th neighbour in insertion order. Entries
    past the prefix are spare capacity. Read-only: the array is the
    graph's own, and an [add_edge] at [u] may replace it. *)
val row_ids : t -> int -> int array

(** [row_weights g u] is [u]'s weight row, aligned with {!row_ids}:
    [(row_weights g u).(i)] is the weight of the edge to
    [(row_ids g u).(i)]. Read-only, like {!row_ids}. *)
val row_weights : t -> int -> float array

(** [slot g u v] is the index of [v] in [u]'s rows (so the edge's
    weight is [(row_weights g u).(slot g u v)]), or [-1] when [{u,v}] is
    not an edge. Allocates nothing, unlike {!edge_weight}. *)
val slot : t -> int -> int -> int

(** [max_degree g] is the maximum degree over all nodes. *)
val max_degree : t -> int

(** [edges g] lists every undirected edge exactly once, as [{u; v; w}]
    with [u < v], ordered by [u] and then by [u]'s insertion order. *)
val edges : t -> edge list

(** [edge_weight g u v] is [Some w] if the edge [{u,v}] exists. *)
val edge_weight : t -> int -> int -> float option

(** [is_connected g] is true iff every node is reachable from node 0. *)
val is_connected : t -> bool

(** [min_edge_weight g] is the lightest edge weight ([infinity] when [g]
    has no edges). Weights are positive, so a path is never shorter than
    any of its edges: on a graph with an edge this is also the least
    pairwise shortest-path distance, exactly. *)
val min_edge_weight : t -> float

(** [scale g factor] is a copy of [g] with every weight multiplied by
    [factor]. Raises [Invalid_argument] if [factor <= 0]. *)
val scale : t -> float -> t
