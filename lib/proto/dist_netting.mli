(** Distributed selection of netting-tree parents.

    After the hierarchy elections (Dist_hierarchy), each net point of Y_i
    must learn its parent in the netting tree: the nearest member of
    Y_(i+1), ties to the least id (Section 2's zooming-sequence rule). The
    protocol is a bounded flood: every Y_(i+1) member announces itself
    within radius 2^(i+1) (inclusive — the covering bound guarantees the
    true nearest is within that budget), and every node keeps the
    lexicographically least (distance, id) announcement it hears.

    Together with Dist_hierarchy this makes the whole hierarchical skeleton
    of the schemes constructible in-network; only the DFS label assignment
    (a single token traversal of the finished tree, n messages) remains a
    centralized step here. The test suite asserts exact agreement with
    [Cr_nets.Netting_tree]'s parents. *)

type result = {
  parent : int array;
      (** parent.(x) = nearest Y_(i+1) member for x in Y_i; -1 elsewhere *)
  stats : Network.stats;
}

(** [parents_for_level m ~members ~upper ~radius] runs one level's
    announcements: [upper] (the level-(i+1) net) floods within [radius]
    (inclusive) and every node of [members] records its choice. [via]
    selects the transport (default [Network.local ?jitter ()]); [label]
    (default ["dist_netting"]) is the protocol tag cost accounting and
    errors report. Raises [Network.Protocol_error] (protocol [<label>]) if a
    member heard no announcement — a covering-bound violation. *)
val parents_for_level :
  ?max_messages:int ->
  ?jitter:int * float ->
  ?via:Network.runner ->
  ?label:string ->
  Cr_metric.Metric.t ->
  members:int list ->
  upper:int list ->
  radius:float ->
  result
