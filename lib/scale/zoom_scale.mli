(** The paper's zooming-sequence scheme as a ball-limited cost model.

    A packet from u to v climbs u's zooming sequence y_0 = u, y_1, ...,
    (y_i = u's nearest level-i net point), and at each level searches the
    ball B(y_i, R_i) with R_i = 2^i / eps_eff, eps_eff = min(eps, 2/5) —
    the Theorem 1.4 search structure. The model charges: the climb leg
    d(y_{i-1}, u) + d(u, y_i) on entering level i; 2 R_i for a failed
    search (the round trip to the ball edge); and 3 d(y_j, v) on the hit
    (search round trip + delivery). Ball searches are truncated Dijkstra
    runs from the hub, memoized per level inside the evaluation task.

    Cost-model stretch bound (proved in the same telescoping style as the
    paper's Theorem 1.4, using the covering invariant d(y_i, u) < 2^i):
    the first hit level i0 has 2^{i0} <= max(1, 2 d e / (1 - e)) for
    d = d(u,v), e = eps_eff, climb legs sum below 3 * 2^{i0}, misses below
    2^{i0+1} / e, and the hit costs at most 3 (2^{i0} + d) — total
    <= (3 + (12 e + 4) / (1 - e)) d. tools/report/check.ml gates E22's
    sampled quantiles against exactly that ceiling. Pairs found at level 0
    (d <= R_0) cost exactly 3d. *)

type t

(** [build ?obs ?levels oracle ~epsilon] builds the net hierarchy
    ([Nets.build]) and fixes the search radii. Raises [Invalid_argument]
    unless [0 < epsilon < 1]. *)
val build :
  ?obs:Cr_obs.Trace.context -> ?levels:int -> Oracle.t -> epsilon:float -> t

val nets : t -> Nets.t

(** [stretch_ceiling t] is 3 + (12 e + 4) / (1 - e) at e = [eps_eff t]. *)
val stretch_ceiling : t -> float

(** [storage ?pool ?sample t] measures the scheme's table bits: per node,
    one nearest-net pointer per level, plus for every level the node is a
    net point of, a directory entry (two ids) per node of its search ball.
    [sample = 0] (default) sweeps every node exactly; [sample = s > 0]
    sweeps node 0 plus up to [s] keyed-sampled net points per level and
    reports estimates flagged [bits_sampled]. Ball searches fan out over
    the pool in fixed chunks. Returns the storage plus the settled-node
    work the sweep spent. *)
val storage : ?pool:Cr_par.Pool.t -> ?sample:int -> t -> Eval.storage * int

(** [scheme ?storage t] packages the model for [Eval.measure]. The
    reported hops count is the hit level (a model quantity, not graph
    hops). *)
val scheme : ?storage:Eval.storage -> t -> Eval.scheme
