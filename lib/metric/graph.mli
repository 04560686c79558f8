(** Connected, edge-weighted, undirected graphs with nodes [0 .. n-1].

    This is the network substrate every routing scheme in this repository
    operates on: the paper's input is "a connected, edge-weighted, undirected
    graph G with n nodes" (Section 2). Edge weights must be strictly
    positive. *)

type t

type edge = { u : int; v : int; w : float }

(** [create n] is a graph on [n] nodes (numbered [0 .. n-1]) and no edges.
    Raises [Invalid_argument] if [n <= 0]. *)
val create : int -> t

(** [add_edge g u v w] adds the undirected edge [{u,v}] of weight [w].
    Raises [Invalid_argument] on self-loops, out-of-range endpoints,
    non-positive or non-finite weights, and duplicate edges. *)
val add_edge : t -> int -> int -> float -> unit

(** [of_edges n edges] builds a graph on [n] nodes from an edge list. *)
val of_edges : int -> (int * int * float) list -> t

(** [n g] is the number of nodes. *)
val n : t -> int

(** [num_edges g] is the number of (undirected) edges. *)
val num_edges : t -> int

(** [neighbors g u] is the list of [(v, w)] pairs adjacent to [u],
    in insertion order. *)
val neighbors : t -> int -> (int * float) list

(** [iter_neighbors g u f] applies [f v w] to every neighbor of [u]. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

(** [degree g u] is the number of edges incident to [u]. *)
val degree : t -> int -> int

(** [max_degree g] is the maximum degree over all nodes. *)
val max_degree : t -> int

(** [edges g] lists every undirected edge exactly once. *)
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

(** [total_weight g] is the sum of all edge weights. *)
val total_weight : t -> float

(** [scale g factor] is a copy of [g] with every weight multiplied by
    [factor]. Raises [Invalid_argument] if [factor <= 0]. *)
val scale : t -> float -> t

(** [pp] prints a short human-readable summary ([n] and edge count). *)
val pp : Format.formatter -> t -> unit
