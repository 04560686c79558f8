(** The scale-free (9 + O(eps))-stretch name-independent routing scheme of
    Theorem 1.1 (Section 3.3, Algorithms 3-4).

    Two families of search trees replace the log Delta per-level
    directories of Theorem 1.4:

    - type B (packing balls): for every scale j and every packed ball
      B in B_j with center c, a search tree on B's 2^j members stores the
      (name, label) pairs of the 2^(j+2) nodes closest to c — four pairs
      per tree node;
    - type A (net balls): a ball B_u(2^i/eps) keeps its own search tree
      only when no packed ball covers for it — i.e. unless some B in B_j
      fits inside B_u(2^i(1/eps + 1)) while its extended ball swallows
      B_u(2^i/eps) — in which case u merely links to that ball's center
      (the H(u, i) link; Claim 3.9 bounds these by 4 log n per node).

    The Search(id, u, i) procedure (Algorithm 4) either searches the local
    type-A tree or hops to H(u, i)'s center, searches its type-B tree, and
    returns. The outer loop is Algorithm 3, unchanged. Storage is
    (1/eps)^(O(alpha)) log^3 n bits per node with no Delta dependence
    (Lemmas 3.5, 3.8). *)

type t

(** [build nt ~epsilon ~naming ~underlying] assembles packings, search
    trees, and H links (the paper pairs this with the Theorem 1.2 labeled
    scheme as [underlying]). Radii use effective epsilon min(eps, 2/5), as
    in Theorem 1.4. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  naming:Cr_sim.Workload.naming ->
  underlying:Underlying.t ->
  t

(** Per-level observation record, shared with {!Simple_ni}. *)
type level_report = Ni_route.level_report = {
  level : int;
  hub : int;
  climb_cost : float;
  search_cost : float;
  found : bool;
}

(** [walk t w ~dest_name] drives walker [w] to the node named [dest_name]
    through {!Ni_route.walk}; [observe] is called once per visited level.
    Hops are trace-tagged [Zoom i] / [Ball_search i] / [Deliver], as in
    {!Simple_ni.walk}. On a walker with failures, a [Blocked] move fails
    over one level up (see {!walk_degraded}) instead of escaping. *)
val walk :
  ?observe:(level_report -> unit) -> t -> Cr_sim.Walker.t -> dest_name:int ->
  unit

(** [found_level t ~src ~dest_name] is the level at which Search() succeeds
    for this pair (the Figure 1 quantity). *)
(* cr_lint: allow dead-export -- test hook: the Figure 1 quantity, checked by test_scale_free_ni *)
val found_level : t -> src:int -> dest_name:int -> int

(** Structure accessors for the route-serving compiler ([Cr_serve]),
    mirroring {!Simple_ni}'s: the naming, the underlying labeled scheme,
    and the lookup loop, whose sites are Algorithm 4's — either the hub's
    own type-A tree ([Local]), or the H(u, i) link as the linked ball's
    center and type-B tree ([Link]). Shared immutable views. *)
val naming : t -> Cr_sim.Workload.naming

val underlying : t -> Underlying.t
val lookup : t -> Ni_route.t

(** [type_a_count t] / [type_b_count t] are the numbers of net-ball and
    packing-ball search trees built — the balance Claims 3.6/3.7 reason
    about. *)
(* cr_lint: allow dead-export -- test hook: the tree-type balance of Claims 3.6 and 3.7 *)
val type_a_count : t -> int

(* cr_lint: allow dead-export -- test hook: the tree-type balance of Claims 3.6 and 3.7 *)
val type_b_count : t -> int

(** [h_links_of t u] lists the levels i in S(u) at which u links to a
    packing ball instead of keeping a tree. *)
(* cr_lint: allow dead-export -- test hook: the h-links of Claim 3.9 *)
val h_links_of : t -> int -> int list

(** [h_link_balls t u] details those links as (level i, scale j, ball
    center): Claim 3.9 bounds the number of *distinct* linked balls per
    scale j by 4 (hence 4 log n overall), which the test suite checks. *)
(* cr_lint: allow dead-export -- test hook: Claim 3.9's bound on distinct linked balls *)
val h_link_balls : t -> int -> (int * int * int) list

(** [trees_containing t v] counts the search trees (both types) whose node
    set includes [v] — the quantity Lemma 3.5 bounds by
    (1/eps)^O(alpha) log n. *)
(* cr_lint: allow dead-export -- test hook: Lemma 3.5's bound on trees per node *)
val trees_containing : t -> int -> int

val table_bits : t -> int -> int
val to_scheme : t -> Cr_sim.Scheme.name_independent

(** Degraded-mode routing through {!Ni_route.walk_degraded}, as in
    [Simple_ni.walk_degraded]: [Blocked] moves trigger a failover that
    re-enters the zooming sequence one level up from the current
    position; returns the route status and the failover count. *)
(* cr_lint: allow dead-export -- test hook: test_fault drives it on a traced walker *)
val walk_degraded :
  t -> Cr_sim.Walker.t -> dest_name:int ->
  Cr_sim.Scheme.route_status * int

(** [degraded_scheme t ~failures] packages {!walk_degraded} over a fixed
    failure set. *)
val degraded_scheme :
  t -> failures:Cr_sim.Failures.t -> Cr_sim.Scheme.degraded
