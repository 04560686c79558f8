(** The nested 2^i-nets Y_i of a graph (Definition 2.1, Eqn 1), built
    from ball-limited searches: the one construction under both the dense
    {!Hierarchy} and the scale tier's [Cr_scale.Nets].

    Level i holds a greedy 2^i-net Y_i with Y_(i+1) as its seed (so nets
    nest downward), Y_0 = V forced, and the top level {0}. A candidate
    joins Y_i iff no earlier net point's truncated ball of radius 2^i
    ({!Cr_metric.Bounded.run}) reached it strictly: {!Rnet.greedy}'s
    "every net point at distance >= r" test, with the quantifier turned
    inside out, so the nets are the matrix greedy's. Each level's nearest
    net points come from one truncated multi-source run with
    {!Cr_metric.Dijkstra.multi_source}'s (distance, owner-id) tie-break:
    {!Cr_metric.Metric.nearest_in}'s least-id rule.

    Distances are one-sided, from the net point, where the dense matrix
    symmetrizes opposing rows by [Float.min]; on weight-1 graphs the two
    agree exactly. [test/test_nets.ml] checks the result against the
    matrix greedy and [nearest_in] on seeded geo, grid and holey-grid
    families. Nothing here is O(n^2): the work is the settled-node count
    of the balls, reported by {!settled_work}. *)

type t

(** [build g ~top_level] constructs levels 0 .. [top_level] of [g], which
    must be connected. Raises [Invalid_argument] if [top_level < 1]. *)
val build : Cr_metric.Graph.t -> top_level:int -> t

(** [top_level t] is the highest level L (Y_L = {0}). *)
val top_level : t -> int

(** [net_radius i] is 2^i, the packing radius of level [i]. *)
val net_radius : int -> float

(** [net t i] is Y_i, sorted ascending.
    Raises [Invalid_argument] for a level outside [0, top_level]. *)
val net : t -> int -> int list

(** [mem t ~level v] is true iff v is a level-[level] net point. *)
val mem : t -> level:int -> int -> bool

(** [highest_level_of t v] is the largest [i] with [v] in Y_i. *)
val highest_level_of : t -> int -> int

(** [nearest_net_point t ~level v] is v's nearest Y_level point (least id
    on ties). *)
val nearest_net_point : t -> level:int -> int -> int

(** [nearest_net_dist t ~level v] is the distance to that net point
    (measured from the net point, like the multi-source run computes it). *)
val nearest_net_dist : t -> level:int -> int -> float

(** [net_points t] is the total number of net points over all levels. *)
val net_points : t -> int

(** [settled_work t] is the total settled-node count over every bounded
    search the construction ran. *)
val settled_work : t -> int
