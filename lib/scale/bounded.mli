(** Radius-truncated Dijkstra over a reusable scratch buffer.

    The scale tier's primitive: a single- or multi-source run that stops at
    the first heap pop whose priority exceeds [radius]. Because binary-heap
    Dijkstra pops priorities in nondecreasing order, every pop with priority
    <= [radius] happens before the cutoff, in exactly the order the full run
    would pop it — so for every settled node (final distance <= [radius])
    the distance, the predecessor (including the smallest-predecessor-id
    tie-break), and, for multi-source runs, the (distance, owner-id)
    lexicographic owner are bit-identical to [Cr_metric.Dijkstra]'s
    untruncated result. [test/test_scale.ml] holds the qcheck property.

    A scratch value owns O(n) arrays reset in O(1) by version stamping, so
    thousands of small-ball runs cost only the nodes they actually touch.
    It also owns one {!Cr_metric.Priority_queue}, keyed by its distance
    array and cleared at the start of each run, and the loops read the
    graph's adjacency rows directly: on a warmed scratch, [run] and
    [run_multi] allocate nothing ([test/test_scale.ml] gates 0 minor
    words over 2000 runs). Scratches are single-domain: share nothing,
    one per pool task. *)

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
val run : t -> Cr_metric.Graph.t -> src:int -> radius:float -> int

(** [run_multi t g ~sources ~radius] truncated multi-source Dijkstra with
    [Cr_metric.Dijkstra.multi_source]'s lexicographic (distance, owner-id)
    ownership rule; returns the number of settled nodes. *)
val run_multi :
  t -> Cr_metric.Graph.t -> sources:int list -> radius:float -> int

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
