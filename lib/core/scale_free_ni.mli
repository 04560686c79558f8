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
    scheme as [underlying]). Radii use {!Ni_scheme.effective_epsilon}, as
    in Theorem 1.4. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  naming:Cr_sim.Workload.naming ->
  underlying:Cr_sim.Scheme.labeled ->
  t

(** [scheme t] is the built scheme, walked and viewed by {!Ni_scheme}
    like Theorem 1.4's. Its lookup's sites are Algorithm 4's: either the
    hub's own type-A tree ([Local]), or the H(u, i) link as the linked
    ball's center and type-B tree ([Link]). *)
val scheme : t -> Ni_scheme.t

(** [to_scheme t] is [Ni_scheme.to_scheme (scheme t)]. *)
val to_scheme : t -> Cr_sim.Scheme.name_independent

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
