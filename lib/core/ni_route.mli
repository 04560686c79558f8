(** Algorithm 3, the lookup loop both name-independent schemes route with
    (Theorems 1.4 and 1.1), written once.

    A packet for name id(v) climbs its source's zooming sequence. At each
    level i it travels to the hub u(i), searches that level's site for the
    name (Algorithm 4's Search), and once a search returns the
    destination's routing label it delivers through the underlying labeled
    scheme. The schemes differ only in their sites: Theorem 1.4 searches
    the hub's own tree, Theorem 1.1 either its own tree or, through the
    H(u, i) link, a packed ball's tree at that ball's center.

    The loop moves its packet through a {!Cr_sim.Walker.mover}, so the
    schemes' walks and the serving engine run this same code: the schemes
    bind it to a walker and their own tables, the engine to its cursor,
    compiled hub rows and compiled underlying driver. *)

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
  hub : src:int -> level:int -> int;  (** src(level), the zooming sequence *)
  site : level:int -> hub:int -> site;
  label : int -> int;  (** node -> underlying routing label *)
}

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

(** [walk ?observe t mv ~travel ~dest_name] moves the packet to the node
    named [dest_name]; [travel l] must move it to the node with underlying
    label [l]. [observe] is called once per searched level. Hops are
    trace-tagged [Zoom i] (climb to the level-[i] hub), [Ball_search i]
    (the search round trip) and [Deliver] (the final labeled route).

    Failover rule (E18): when a move raises {!Cr_sim.Walker.Blocked}, the
    packet abandons the level and re-enters the zooming sequence one level
    up from its current position; every later hop is tagged [Faults]. On a
    mover that never blocks this is plain Algorithm 3.

    Raises [Invalid_argument] when no level up to the top finds the name,
    and lets {!Cr_sim.Walker.Hop_budget_exhausted} escape. *)
val walk :
  ?observe:(level_report -> unit) -> t -> Cr_sim.Walker.mover ->
  travel:(int -> unit) -> dest_name:int -> unit

(** [walk_degraded t mv ~travel ~dest_name] is [walk] returning the route
    status and the number of failovers instead of raising: [Delivered]
    without failover, [Rerouted] after some, [Undeliverable] when the top
    level is passed or the hop budget runs out. *)
val walk_degraded :
  t -> Cr_sim.Walker.mover -> travel:(int -> unit) -> dest_name:int ->
  Cr_sim.Scheme.route_status * int

(** [found_level t ~src ~dest_name] is the level at which the search from
    [src]'s zooming sequence first finds the name — the quantity Figure 1
    plots. Raises [Invalid_argument] if no level does. *)
val found_level : t -> src:int -> dest_name:int -> int
