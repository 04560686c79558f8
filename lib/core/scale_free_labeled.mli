(** The scale-free (1 + O(eps))-stretch labeled routing scheme of
    Theorem 1.2 (Section 4, Algorithm 5).

    Data structures per node u:
    - rings X_i(u) with ranges and next hops, but only for the selected
      levels R(u) (Section 4.1) — this removes the log Delta storage factor;
    - for every j in [0, log2 n]: u's Voronoi cell center c among the
      packing B_j's centers, u's parent in the cell's shortest-path tree
      T_c(j), and u's interval-routing table for T_c(j);
    - the search tree II T'(c, r_c(j)) of every packed ball whose tree
      contains u, storing (global label, local tree label) pairs for the
      cell nodes within radius r_c(j+1) of c.

    Routing (Algorithm 5): greedily forward toward the lowest-selected-level
    ring member whose range covers the destination label while levels
    shrink and the target stays far (lines 2-6); once the loop exits, pick
    the packing scale j matching the last level, climb the local Voronoi
    tree to its center, look up the destination's local tree label in the
    search tree II, and tree-route to it (lines 7-10).

    A netting-descent fallback guarantees delivery outside the theorem's
    premises; invocations are counted and expected to be zero. *)

type t

(** [build ?obs nt ~epsilon] precomputes all structures (traced as a
    [scale_free_labeled.build] span with packing/search-tree/table-size
    counters). *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  t

(** [label t v] is v's ceil(log n)-bit routing label (netting-tree DFS
    number). *)
val label : t -> int -> int

(** [netting_tree t] is the netting tree [t] was built over. *)
val netting_tree : t -> Cr_nets.Netting_tree.t

(** {1 Algorithm 5} *)

(** Everything Algorithm 5 reads; the serving engine counts its tables. *)
type router = {
  ring : Rings.t;
      (** the ring store: the ring phase looks up the covering entry with
          [Rings.cover] and steps to its stored next hop *)
  far_bound : float array;
      (** level i -> (2^i / 2 / eps) - 2^i, Line 4's threshold: the
          phase continues while the covering entry's [Rings.entry_dist]
          is at least this *)
  n : int;
  scales : int;  (** the packing scales j = 0 .. scales - 1 *)
  radii : float array;  (** [u * scales + j] -> r_u(2^j) *)
  owner : int array;  (** [j * n + v] -> v's Voronoi center c at scale j *)
  parent : int array;  (** [j * n + v] -> v's parent in T_c(j) *)
  search : (int, Cr_search.Search_tree.t) Hashtbl.t array;
      (** per scale: center -> its search tree II *)
  cell_routers : (int, Cr_tree.Interval_routing.t) Hashtbl.t array;
      (** per scale: center -> its interval router for T_c(j) *)
  nt : Cr_nets.Netting_tree.t;
      (** the netting tree, whose ancestor rows the netting-descent
          fallback climbs *)
  fallbacks : int Atomic.t;  (** fallbacks taken through this router *)
}

(** [router t] is the scheme's own router, over its rings. *)
val router : t -> router

(** [walk t w ~dest_label] moves walker [w] to the node labeled
    [dest_label] by Algorithm 5, over the scheme's router: the ring phase
    (lines 1-6), the packing scale matching its exit level (line 7), the
    climb to the Voronoi center (line 8), the search tree II lookup of the
    local tree label (line 9) and the tree route (line 10), with the
    netting-descent fallback (counted in [fallbacks]) outside the
    theorem's premises. Hops are trace-tagged with the Figure 2 phases:
    [Net_phase] (ring descent), [Voronoi_phase] (cell-tree climb and
    tree-route), [Search_tree_phase] (search tree II lookup), and
    [Fallback]. *)
val walk : t -> Cr_sim.Walker.t -> dest_label:int -> unit

(** [fallback_count t] is the number of times the scheme's walks, and the
    routes an engine compiled from it serves, left the theorem's fast
    path since [build]. *)
(* cr_lint: allow dead-export -- test hook: tests assert Theorem 1.2 routes keep to the fast path *)
val fallback_count : t -> int

(** [table_bits t v] is the measured per-node storage in bits (fallback
    structures excluded; see interface comment). *)
val table_bits : t -> int -> int

val label_bits : t -> int

(** [to_underlying t] is the scheme as the harness sees it, and as a
    name-independent scheme built over it does: its labels and its
    {!walk}. *)
val to_underlying : t -> Cr_sim.Scheme.labeled
