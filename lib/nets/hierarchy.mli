(** The nested hierarchy of 2^i-nets Y_i (Section 2, Eqn 1) of a metric.

    Levels run from 0 to L = ceil(log2 Delta):
    - Y_L is a singleton (the least node id, standing in for the paper's
      "arbitrary node");
    - Y_i is obtained by greedily extending Y_(i+1) to a 2^i-net of V;
    - Y_0 = V (level-0 membership is forced rather than recomputed so that
      float rounding can never drop a node).

    So Y_L \subseteq Y_(L-1) \subseteq ... \subseteq Y_0 = V. The nets
    and nearest net points are {!Net_levels.build} on the metric's graph
    with L = [Metric.levels]: ball-limited searches, not matrix scans. *)

type t

(** [build ?obs m] constructs the hierarchy for metric [m], under an
    [hierarchy.build] span with level/net-point counters when [obs] (or
    the global trace context) is enabled. *)
val build : ?obs:Cr_obs.Trace.context -> Cr_metric.Metric.t -> t

(** [metric h] is the underlying metric. *)
val metric : t -> Cr_metric.Metric.t

(** [top_level h] is L = ceil(log2 Delta); valid levels are 0..L. *)
val top_level : t -> int

(** [net h i] is Y_i sorted by id. Raises [Invalid_argument] if [i] is out
    of range. *)
val net : t -> int -> int list

(** [mem h ~level v] is true iff v is in Y_level. *)
val mem : t -> level:int -> int -> bool

(** [net_radius i] is 2^i, the packing radius of level [i]. *)
val net_radius : int -> float

(** [highest_level_of h v] is the largest [i] with [v] in Y_i. *)
val highest_level_of : t -> int -> int

(** [nearest_net_point h ~level v] is the node of Y_level nearest to [v],
    ties broken toward the least id — the paper's common tie-breaking
    mechanism for zooming sequences. *)
val nearest_net_point : t -> level:int -> int -> int
