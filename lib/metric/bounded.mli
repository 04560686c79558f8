(** Radius-truncated Dijkstra over a reusable scratch buffer.

    The ball-limited primitive under the net hierarchy
    ([Cr_nets.Net_levels]) and the scale tier: a single- or multi-source
    run that stops at the first heap pop whose priority exceeds [radius].
    Because binary-heap Dijkstra pops priorities in nondecreasing order,
    every pop with priority <= [radius] happens before the cutoff, in
    exactly the order the full run would pop it. So for every settled node
    (final distance <= [radius]) the distance and the predecessor
    (including the smallest-predecessor-id tie-break) are bit-identical to
    {!Dijkstra.run}'s, and a multi-source run's (distance, owner-id)
    lexicographic owner is {!Dijkstra.multi_source}'s, which is this run at
    [radius = infinity]. [test/test_scale.ml] holds the qcheck properties.

    A scratch value owns O(n) arrays reset in O(1) by version stamping, so
    thousands of small-ball runs cost only the nodes they actually touch.
    It also owns one {!Priority_queue}, keyed by its distance array and
    cleared at the start of each run, and the loops read the graph's
    adjacency rows directly: on a warmed scratch, [run] and [run_multi]
    allocate nothing ([test/test_scale.ml] gates 0 minor words over 2000
    runs). Scratches are single-domain: share nothing, one per pool
    task. *)

type t

(** [create n] is a scratch for graphs on exactly [n] nodes.
    Raises [Invalid_argument] if [n < 1]. *)
val create : int -> t

(** [run t g ~src ~radius] truncated single-source Dijkstra; returns the
    number of settled nodes (those with d(src, v) <= radius). [radius] may
    be [infinity] for a full run. Results stay readable until the next
    [run]/[run_multi] on [t]. Raises [Invalid_argument] on a graph whose
    size differs from [create]'s [n], an out-of-range source, or a negative
    or NaN radius. *)
val run : t -> Graph.t -> src:int -> radius:float -> int

(** [run_multi t g ~sources ~radius] truncated multi-source Dijkstra with
    the lexicographic (distance, owner-id) ownership rule that
    {!Dijkstra.multi_source} documents; returns the number of settled
    nodes. A repeated source counts once. Raises [Invalid_argument] like
    [run], and on an empty source list. *)
val run_multi : t -> Graph.t -> sources:int list -> radius:float -> int

(** [settled_count t] is the settled-node count of the last run. *)
val settled_count : t -> int

(** [settled t v] is true iff [v] was settled by the last run. *)
val settled : t -> int -> bool

(** [dist t v] is the exact distance for a settled [v]; [infinity]
    otherwise (including nodes merely relaxed past the radius). *)
val dist : t -> int -> float

(** [pred t v] is the predecessor of a settled [v] on its shortest path
    (-1 at a source); -1 for unsettled nodes. *)
val pred : t -> int -> int

(** [owner t v] is, after [run_multi], the owning source of a settled [v];
    after [run], the source itself; -1 for unsettled nodes. *)
val owner : t -> int -> int

(** [iter_settled t f] applies [f] to every settled node in settle
    (nondecreasing-distance) order. *)
val iter_settled : t -> (int -> unit) -> unit
