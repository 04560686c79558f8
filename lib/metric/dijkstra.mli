(** Single-source shortest paths on weighted graphs.

    Classic Dijkstra with a binary heap. Distances are exact shortest-path
    lengths; predecessors reconstruct one shortest path per destination,
    with deterministic tie-breaking (smallest predecessor id wins), so every
    run over the same graph yields the same shortest-path forest.

    [run]'s relaxation loop reads each settled node's adjacency rows
    ({!Graph.row_ids}, {!Graph.row_weights}) and pushes onto a
    {!Priority_queue} keyed by the distance array, so a run allocates its
    result arrays and its heap and nothing per node or per edge. It keeps
    a loop of its own rather than running {!Bounded.run} at an infinite
    radius: a fresh scratch per run is measurably slower on the
    all-pairs build, and a reused one needs a scratch held by every
    caller. [multi_source] has no loop of its own: it is
    {!Bounded.run_multi} at an infinite radius. [test/test_metric.ml]
    checks both entry points against a Bellman-Ford reference. *)

type result = {
  dist : float array;  (** [dist.(v)] = d(source, v); [infinity] if unreachable *)
  pred : int array;  (** [pred.(v)] = predecessor of [v] on a shortest path; -1 at the source and for unreachable nodes *)
}

(** [run g s] computes shortest paths from source [s]. *)
val run : Graph.t -> int -> result

(** [run_ordered g s] is [run g s] together with the settle order: the
    nodes [s] reaches, in the order the heap popped them, then zeros for
    the nodes it does not reach. Pops come in (distance, id) order, except
    that a node whose distance an edge weight rounds away from (d + w = d,
    past 2^53) can pop after a larger id at the same distance. Only
    [Metric.of_graph] asks for the order, so [run] allocates no array for
    it. *)
val run_ordered : Graph.t -> int -> result * int array

(** [multi_source g sources] runs Dijkstra from a set of virtual sources
    simultaneously. Returns per-node distance to the nearest source, the
    nearest source itself ([owner]), and the predecessor on a shortest path
    from that source; a node no source reaches reads [infinity], -1 and -1,
    and a source reads 0, itself and -1. Ownership ties are broken
    lexicographically by (distance, source id), making Voronoi cells
    prefix-closed: every node on the tree path from an owner to a node it
    owns is owned by the same source. A repeated source counts once.
    Raises [Invalid_argument] on an empty source list or an out-of-range
    source. *)
val multi_source :
  Graph.t -> int list -> float array * int array * int array
