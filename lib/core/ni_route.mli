(** Algorithm 3, the lookup loop both name-independent schemes route with
    (Theorems 1.4 and 1.1), written once.

    A packet for name id(v) climbs its source's zooming sequence. At each
    level i it travels to the hub u(i), searches that level's site for the
    name (Algorithm 4's Search), and once a search returns the
    destination's routing label it delivers through the underlying labeled
    scheme. The schemes differ only in their sites: Theorem 1.4 searches
    the hub's own tree, Theorem 1.1 either its own tree or, through the
    H(u, i) link, a packed ball's tree at that ball's center.

    The loop moves its packet on a {!Cr_sim.Walker.t}: the schemes
    ({!Ni_scheme}, whose walks the serving engine serves) run it over
    their own tables, and [Cr_location.Directory] over its dynamic
    directory trees. Both read the hubs from the netting tree's ancestor
    table. *)

(** Where a level's search happens (Algorithm 4). *)
type site =
  | Local of Cr_search.Search_tree.t  (** the hub's own tree *)
  | Link of int * Cr_search.Search_tree.t
      (** H(u, i): a packed ball's center and its tree; the packet goes
          there, searches, and comes back to the hub *)

(** One scheme's lookup loop. *)
type t = {
  first_level : int;  (** the level the climb starts at *)
  top_level : int;
  tree : Cr_nets.Netting_tree.t;
      (** the netting tree, whose ancestor rows are the zooming sequences
          the loop climbs: src's level-i hub is
          [Netting_tree.ancestor tree src ~level:i] *)
  site : level:int -> hub:int -> site;
  label : int -> int;  (** node -> underlying routing label *)
}

(** [site_table ~scheme ~n sites] is the [site] function over a
    (level, net point) table indexed [level * n + node]. It raises
    [Invalid_argument], naming [scheme], the level and the node, when that
    slot holds no site. *)
val site_table :
  scheme:string -> n:int -> site option array -> level:int -> hub:int -> site

(** One level of the loop, as reported to an observer: the cost of reaching
    the level's hub u(i) and of the search round trip there — the data
    Figure 1 illustrates. *)
type level_report = {
  level : int;
  hub : int;
  climb_cost : float;
  search_cost : float;
  found : bool;
}

(** [walk ?observe t w ~travel ~dest_name] moves walker [w] to the node
    named [dest_name]; [travel l] must move it to the node with underlying
    label [l]. [observe] is called once per searched level. Only an
    observer costs anything beyond the moves: without one the loop reads
    no [Walker.cost] and builds no [level_report], so a route pays for its
    hops and for a few closures per level. Hops are
    trace-tagged [Zoom i] (climb to the level-[i] hub), [Ball_search i]
    (the search round trip) and [Deliver] (the final labeled route).

    Failover rule (E18): when a move raises {!Cr_sim.Walker.Blocked}, the
    packet abandons the level and re-enters the zooming sequence one level
    up from its current position; every later hop is tagged [Faults]. On a
    walker without failures this is plain Algorithm 3.

    Raises [Invalid_argument] when no level up to the top finds the name,
    and lets {!Cr_sim.Walker.Hop_budget_exhausted} escape. *)
val walk :
  ?observe:(level_report -> unit) -> t -> Cr_sim.Walker.t ->
  travel:(int -> unit) -> dest_name:int -> unit

(** [run ?observe t w ~travel ~failovers ~dest_name] is the loop itself,
    as [walk] runs it: it returns whether some level up to the top found
    the name (false leaves the packet where the top-level search ended),
    adds each failover taken to [failovers], and lets
    {!Cr_sim.Walker.Hop_budget_exhausted} escape. *)
val run :
  ?observe:(level_report -> unit) -> t -> Cr_sim.Walker.t ->
  travel:(int -> unit) -> failovers:int ref -> dest_name:int -> bool

(** [found_level t ~src ~dest_name] is the level at which the search from
    [src]'s zooming sequence first finds the name — the quantity Figure 1
    plots. Raises [Invalid_argument] if no level does. *)
(* cr_lint: allow dead-export -- test hook: the Figure 1 quantity, checked by test_simple_ni and test_scale_free_ni *)
val found_level : t -> src:int -> dest_name:int -> int
