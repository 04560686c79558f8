(** The non-scale-free (1 + O(eps))-stretch labeled routing scheme — our
    concrete stand-in for the Abraham-Gavoille-Goldberg-Malkhi scheme the
    paper cites as Lemma 3.1 (see DESIGN.md, substitution 1).

    Labels are the netting tree's DFS leaf numbers (ceil(log n) bits).
    Every node stores rings X_i(u) for *every* level i in [0, log Delta]
    with ranges and next hops; routing repeatedly forwards one hop toward
    the lowest-level ring member whose range covers the destination label.
    The minimal covering level never increases along the walk and strictly
    decreases each time a ring member is reached, so the packet converges
    on the destination with (1 + O(eps)) stretch while tables cost
    (1/eps)^(O(alpha)) log Delta log n bits — exactly the Lemma 3.1
    trade-off. *)

type t

(** [build ?obs nt ~epsilon] prepares the scheme over netting tree [nt]
    (traced as a [hier_labeled.build] span with table-size counters).
    Per-node ring construction fans out over [pool]; tables are identical
    whatever the pool size. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  t

(** [rings t] is the scheme's ring store, which its walks read and the
    serving engine's [next_hop] reads at the destination's label;
    [netting_tree t] is the tree it was built over. *)
val rings : t -> Rings.t

val netting_tree : t -> Cr_nets.Netting_tree.t

(** [route_over ~next_hop ~dest w ~dest_label] is Lemma 3.1's forwarding
    rule, written once: at each node [at] short of [dest] (the node labeled
    [dest_label]) it takes [next_hop ~at ~label:dest_label], the next hop
    toward the minimal-level ring member whose range covers the label, and
    steps walker [w] there. Hops are attributed to the [Net_phase] trace phase unless
    an outer scheme already set one. The scheme's walk ({!to_underlying})
    binds [next_hop] to [Rings.next_hop] over its store. Raises
    [Invalid_argument] naming the node and the label when [next_hop]
    answers -1 (no ring covers the label) or the node itself. *)
(* cr_lint: allow dead-export -- test hook: test_hier_labeled binds a next-hop source with no answer to check the typed error *)
val route_over :
  next_hop:(at:int -> label:int -> int) -> dest:int ->
  Cr_sim.Walker.t -> dest_label:int -> unit

(** [to_underlying t] is the scheme as the harness sees it, and as a
    name-independent scheme built over it does: its labels (the netting
    tree's DFS leaf numbers) and its walk, which advances a walker to the
    node labeled [dest_label] by {!route_over} over [t]'s rings. *)
val to_underlying : t -> Cr_sim.Scheme.labeled
