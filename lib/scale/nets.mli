(** The r-net hierarchy over an oracle's graph: {!Cr_nets.Net_levels}
    (the construction the dense [Cr_nets.Hierarchy] runs too) under a
    ["scale.nets.build"] span.

    With [~levels] set to the dense [Metric.levels], the result is the
    dense hierarchy's, node for node: both run the same ball-limited
    greedy on the same normalized graph. Without it, the depth is
    [Oracle.levels_upper]: an upper bound from ecc(0), so the hierarchy
    may carry extra near-top levels (still valid nets, typically {0}). *)

type t

(** [build ?obs ?levels oracle] constructs the hierarchy from bounded
    searches only — nothing O(n^2). Emits a ["scale.nets.build"] span with
    [scale.nets.*] counters when enabled. Raises [Invalid_argument] if
    [levels < 1]. *)
val build : ?obs:Cr_obs.Trace.context -> ?levels:int -> Oracle.t -> t

(** [top_level t] is the highest level L (Y_L = {0}). *)
val top_level : t -> int

(** [net t i] is Y_i, sorted ascending.
    Raises [Invalid_argument] for a level outside [0, top_level]. *)
val net : t -> int -> int list

(** [mem t ~level v] is true iff v is a level-[level] net point. *)
val mem : t -> level:int -> int -> bool

(** [nearest_net_point t ~level v] is v's nearest Y_level point (least id
    on ties). *)
val nearest_net_point : t -> level:int -> int -> int

(** [nearest_net_dist t ~level v] is the distance to that net point
    (measured from the net point, like the multi-source run computes it). *)
val nearest_net_dist : t -> level:int -> int -> float

(** [settled_work t] is the total settled-node count over every bounded
    search the construction ran: the oracle-work number E22 reports. *)
val settled_work : t -> int
