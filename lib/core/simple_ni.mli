(** The simpler, non-scale-free (9 + O(eps))-stretch name-independent
    routing scheme of Theorem 1.4 (Sections 3.1-3.2, Algorithm 3).

    For every level i in [0, log Delta] and every net point u in Y_i, a
    search tree T(u, 2^i/eps) stores the (name, label) directory of the
    ball B_u(2^i/eps). A packet for name id(v) climbs the source's zooming
    sequence; at each u(i) it runs SearchTree (Algorithm 2) over the
    level-i ball, and once the destination's label is found it switches to
    the underlying labeled scheme. Lemma 3.4 gives the 9 + O(eps) stretch:
    the climb costs < 2^(j+1), the searches cost sum 2^(i+1)/eps, and the
    miss at level j-1 certifies d(u, v) >= 2^(j-1)(1/eps - 2).

    All travel — zoom steps, search-tree virtual edges, and the final leg —
    is executed by the underlying labeled scheme passed to [build]
    (Theorem 1.4 pairs with the Lemma 3.1 scheme; tests also compose it
    with the scale-free one). The built scheme is a {!Ni_scheme.t}, whose
    walks and harness views both theorems share. *)

type t = Ni_scheme.t

(** [build nt ~epsilon ~naming ~underlying] assembles all directories for
    the given node naming. The search radii use
    {!Ni_scheme.effective_epsilon}.

    [min_level] (default 0) explores the *relaxed guarantees* question the
    paper's conclusion poses: levels below it keep no directories and the
    lookup loop starts there, shrinking the per-node tables at the price of
    worse stretch exactly for nearby pairs (a bounded fraction of
    source-destination pairs) — measured in experiment E15. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  ?min_level:int ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  naming:Cr_sim.Workload.naming ->
  underlying:Cr_sim.Scheme.labeled ->
  t

(** [to_scheme] is {!Ni_scheme.to_scheme}. *)
val to_scheme : t -> Cr_sim.Scheme.name_independent
