(** Search trees over balls (Definition 3.2 / Definition 4.2) with the
    distributed (key, data) directory of Algorithms 1 and 2.

    A search tree T(c, r) spans the nodes of a ball B_c(r): level U_0 is the
    center, and level U_i is a 2^(L-i)-net of the still-unplaced ball nodes
    for L = floor(log2 (eps r)); each node links to its nearest node one
    level up. The tree's height is at most (1 + O(eps)) r (Eqn 3).

    Two deliberate deviations from the paper's text, both documented in
    DESIGN.md: (i) after the last net level every still-unplaced node is
    attached to its nearest previous-level node ("final sweep"), because with
    distances at the minimum-separation scale the paper's level structure
    need not exhaust the ball; this only adds edges no longer than the last
    net radius and preserves Eqn 3. (ii) The Definition 4.2 variant caps the
    number of net levels at ceil(log2 n) and hangs the remaining nodes off
    their nearest top-level net point ("site") in id-ordered chains whose
    virtual edges cost 2 eps r / n each — that cap is what removes the
    log Delta dependence from the labeled scheme.

    The directory (Algorithm 1) sorts the pairs by key and deals them out in
    contiguous slices along a DFS of the tree, so every subtree owns a
    contiguous key range; lookups (Algorithm 2) descend from the root along
    range information, then walk back, and the caller pays real routing
    cost for every virtual edge traversed.

    {b Layout.} A tree is flat arrays indexed by its members' sorted
    order: each member's parent and the chain weight of its parent edge;
    its children, in id order, as a range of one shared array; its
    build-time subtree key range; its own slice of one sorted key array
    and one aligned data array (Algorithm 1); and the height, computed
    once. A member's pairs become a list of their own only when [insert]
    or [remove] first changes them. There is no hash table and no stored
    [Cr_tree.Tree.t]; a lookup is a descent over int arrays and a binary
    search in the stop node's slice.

    {b Construction.} The levels are built over the same member slots,
    from the metric's neighbour order ({!Cr_metric.Metric.nth_nearest}).
    Level i scans the unplaced members in id order; a member joins the
    2^(L-i)-net unless an earlier point of the level lies strictly within
    r_i = 2^(L-i) of it, and a point that joins marks the members
    strictly within r_i by walking its own order, a prefix of it. A
    point's parent (and a leftover's sweep parent or chain site) is the
    first member of the level above in its own order: the nearest one,
    least id on ties. Node ids map to slots through a version-stamped
    scratch of n ints kept per domain, so a build allocates in
    proportion to its members. [test/test_search_tree.ml] checks every
    tree against a list builder of the same levels (greedy nets over
    lists, nearest point by a scan of the level above). *)

type t

(** How a traversed virtual edge must be paid for by the caller. *)
type leg = {
  src : int;
  dst : int;
  chained_cost : float option;
      (** [Some w] for a Definition 4.2 chain edge: the packet moves inside
          one site's local tree and the scheme charges the fixed virtual
          weight [w]. [None] for a net edge: the caller routes from [src] to
          [dst] with the underlying labeled scheme and pays the real cost. *)
}

type search_result = {
  data : int option;  (** the value bound to the key, if present *)
  legs : leg list;  (** every virtual edge traversed, descent then return *)
}

(** [build m ~epsilon ~center ~radius ~members ~level_cap ~pairs ~universe]
    constructs the tree on [members] (which must contain [center]; members
    need not be the full metric ball — packing balls pass their canonical
    fixed-size member sets) and installs the directory [pairs]
    (key-distinct). [level_cap = Some k] selects the Definition 4.2 variant
    with at most [k] net levels; [None] selects Definition 3.2. [universe]
    is the key/data universe size used for bit accounting (node names and
    labels live in [0, n)). *)
val build :
  Cr_metric.Metric.t ->
  epsilon:float ->
  center:int ->
  radius:float ->
  members:int list ->
  level_cap:int option ->
  pairs:(int * int) list ->
  universe:int ->
  t

(** [build_keyspace m ~epsilon ~center ~radius ~members ~level_cap
    ~universe] is [build] with no pairs, whose Algorithm 1 deals the key
    space [0, universe) instead: every node owns a contiguous slice of it,
    and every subtree a contiguous range. A key {!insert}ed later is
    stored at the node whose slice holds it, so a {!search} descends to
    that node. This is the dynamic directory's tree (Cr_location). *)
val build_keyspace :
  Cr_metric.Metric.t ->
  epsilon:float ->
  center:int ->
  radius:float ->
  members:int list ->
  level_cap:int option ->
  universe:int ->
  t

(** [search t ~key] runs Algorithm 2 from the root. *)
val search : t -> key:int -> search_result

(** [walk t ~key ~jump ~goto] is [search] paid as it goes: it makes
    exactly the calls [pay (search t ~key).legs ~jump ~goto] makes, in the
    same order — each edge down from the root to the node where the
    descent stops, then each edge back up — and returns the data [search]
    returns, without building the leg list. This is what a routing loop
    calls. *)
val walk :
  t -> key:int -> jump:(int -> float -> unit) -> goto:(int -> unit) ->
  int option

(** [pay legs ~jump ~goto] moves a packet along a traversal's virtual
    edges in order — the one place any search, insert or remove is paid
    for: [jump dst w] for a chain edge of fixed weight [w], [goto dst] for
    a net edge (the caller routes to [dst] and pays the real cost). *)
val pay : leg list -> jump:(int -> float -> unit) -> goto:(int -> unit) -> unit

(** [insert t ~key ~data] installs a new pair dynamically: the descent for
    [key] is deterministic (first child in id order whose build-time range
    covers it), so storing the pair at the node where the descent stops
    makes every later [search] find it with no range maintenance — the
    primitive behind the object-location service (Cr_location). Returns the
    virtual edges traversed (descent and return), to be charged like a
    search. Raises [Invalid_argument] if the key is already present. *)
val insert : t -> key:int -> data:int -> leg list

(** [remove t ~key] deletes a pair if present; returns whether it was and
    the traversal legs. *)
val remove : t -> key:int -> bool * leg list

(** [parent t v] is [v]'s parent in the virtual tree, [None] at the
    center. Raises [Invalid_argument] naming [v] if it is not a member. *)
val parent : t -> int -> int option

(** [members t] is the sorted node list. *)
val members : t -> int list

(** [height_cost t] is the maximum root-to-node cost in the virtual tree
    (bounded by (1 + O(eps)) r). *)
val height_cost : t -> float

(** [load t v] is the number of pairs stored at [v]. Raises
    [Invalid_argument] naming [v] if it is not a member. *)
(* cr_lint: allow dead-export -- test hook: test_search_tree checks Algorithm 1's ceil(k/m) load balance with it *)
val load : t -> int -> int

(** [keys t] is the sorted list of every key currently stored anywhere in
    the tree (static pairs plus dynamic inserts). *)
val keys : t -> int list

(** [table_bits t v] is the measured directory + topology storage charged to
    [v] in bits: its stored pairs, its subtree range, one range and link per
    child, and the parent link. Raises [Invalid_argument] naming [v] if it
    is not a member. *)
val table_bits : t -> int -> int

(** [max_degree t] is the maximum tree degree (the paper bounds the root's
    degree by (1/eps)^(O(alpha)) via Lemma 2.2). *)
(* cr_lint: allow dead-export -- test hook: test_search_tree checks Lemma 2.2's degree bound with it *)
val max_degree : t -> int

(** [is_chained t v] is true iff [v]'s edge to its parent is a
    Definition 4.2 chain edge (fixed virtual weight) rather than a net
    edge. *)
val is_chained : t -> int -> bool
