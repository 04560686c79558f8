(** Distributed object location over the name-independent hierarchy — the
    application the paper's introduction motivates ("locating nearby copies
    of replicated objects and tracking of mobile objects").

    The structure is Theorem 1.4's directory with dynamic content: for
    every level i and net point u in Y_i there is a search tree over the
    ball B_u(2^i/eps), initially empty. Each tree deals the key space
    [0, key_universe) over its DFS in Algorithm 1's slices
    ({!Cr_search.Search_tree.build_keyspace}), so a key is stored at the
    tree node whose slice holds it, and reaching it is Algorithm 2's
    descent. Publishing an object with key k held at node v inserts the
    pair (k, l(v)) into *every* level-i tree whose ball contains v (a
    (1/eps)^O(alpha)-bounded set per level, by Lemma 2.2); a lookup
    climbs the client's zooming sequence exactly like Algorithm 3 and
    therefore finds the object at the first level whose ball reaches its
    holder — so lookups for nearby objects cost O(distance / eps), the
    locality property DHT overlays buy from this machinery.

    All operations drive a real walker through the network (publishes
    travel from the holder to each directory tree; lookups climb, search,
    and fetch), so returned costs are exact traveled distances. *)

type t

(** [create nt ~epsilon ~underlying ~key_universe] builds the (empty)
    hierarchy of directory trees. Keys must be in [0, key_universe). *)
val create :
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  underlying:Cr_core.Underlying.t ->
  key_universe:int ->
  t

(** [publish t ~key ~holder] registers the object at [holder] and returns
    the distance traveled to install all directory entries.
    Raises [Invalid_argument] if the key is already published or out of
    range. *)
val publish : t -> key:int -> holder:int -> float

(** [move t ~key ~from_holder ~to_holder] re-homes a published object. *)
val move : t -> key:int -> from_holder:int -> to_holder:int -> float

(** [lookup t w ~key] drives walker [w] from its position to the object's
    holder; returns the holder (or None, leaving the walker where its
    top-level search ended). The lookup is Algorithm 3's loop,
    {!Cr_core.Ni_route.run}, over the directory trees: its hops are
    trace-tagged [Zoom i] (climb to the level-[i] hub), [Ball_search i]
    (the search round trip) and [Deliver] (the labeled route to the
    holder). On a walker with failures a {!Cr_sim.Walker.Blocked} move
    fails over one level up, from the packet's current position, instead
    of escaping, and every later hop is tagged [Faults];
    {!Cr_sim.Walker.Hop_budget_exhausted} escapes. *)
val lookup : t -> Cr_sim.Walker.t -> key:int -> int option

(** {1 Replicated objects}

    The paper's introduction also motivates "locating nearby copies of
    replicated objects": several holders may serve the same key. Each
    directory tree keeps the label of the replica *closest to its own
    center*, so a lookup — which climbs the client's zooming sequence and
    stops at the first level whose ball knows the key — lands on a replica
    near the client. Replicated keys and single-holder keys are disjoint
    namespaces ([publish] vs [publish_replica]). *)

(** [publish_replica t ~key ~holder] adds a replica (cost returned). In
    every directory tree covering [holder], the entry for [key] is created
    or, if another replica already owns it, re-pointed only when the new
    replica is closer to that tree's center. Raises [Invalid_argument] if
    [holder] already serves this key or the key is singly published. *)
val publish_replica : t -> key:int -> holder:int -> float
