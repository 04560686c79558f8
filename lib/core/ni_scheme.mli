(** A built name-independent scheme, Theorem 1.4's or Theorem 1.1's, and
    every view the harness takes of it, written once.

    Both theorems stack Algorithm 3 ({!Ni_route}) on "the underlying
    labeled routing scheme" and differ only in Algorithm 4's search sites,
    which their builds ([Simple_ni.build], [Scale_free_ni.build]) lay out.
    Once built, a scheme is this value: the lookup loop, the underlying
    labeled scheme that executes all travel (zoom steps, search-tree legs
    and the final delivery), and the directory trees each node stores. *)

type t = {
  name : string;  (** the harness name ([Scheme.ni_name]) *)
  degraded_name : string;  (** the name of its {!degraded_scheme} view *)
  metric : Cr_metric.Metric.t;
  naming : Cr_sim.Workload.naming;
  underlying : Cr_sim.Scheme.labeled;
  lookup : Ni_route.t;
      (** levels, zooming-sequence hubs (the netting tree's ancestor
          table) and per-level sites, as shared immutable views *)
  trees_of : Cr_search.Search_tree.t list array;
      (** node -> the directory trees whose node sets include it *)
  link_bits : int -> int;
      (** per-node storage besides the trees: Theorem 1.1's H(u, i)
          links, none for Theorem 1.4 *)
}

(** [effective_epsilon eps] is min(eps, 2/5), the epsilon the search
    radii use (here and in [Cr_location.Directory]): it keeps Lemma 3.4's
    denominator 1/eps - 2 positive, which the paper absorbs in O(eps)
    (see DESIGN.md). *)
val effective_epsilon : float -> float

(** [walk t w ~dest_name] drives walker [w] to the node named [dest_name]
    through {!Ni_route.walk}, travelling on [t.underlying]; [observe] is
    called once per visited level. Hops are trace-tagged [Zoom i] (climb
    to the level-[i] hub), [Ball_search i] (the search round trip) and
    [Deliver] (the final labeled descent). On a walker with failures, a
    [Blocked] move fails over one level up (see {!walk_degraded}) instead
    of escaping. Raises [Invalid_argument] if no level finds the name and
    lets [Walker.Hop_budget_exhausted] escape. *)
val walk :
  ?observe:(Ni_route.level_report -> unit) -> t -> Cr_sim.Walker.t ->
  dest_name:int -> unit

(** [walk_degraded t w ~dest_name] is [walk] returning instead of raising:
    when the walker raises [Blocked] (its failure set refuses a move), the
    packet abandons the level and re-enters the zooming sequence one level
    up from its *current* position; hops after the first failover are
    trace-tagged [Faults]. Returns the route status — [Delivered] without
    failover, [Rerouted] after some, [Undeliverable] when the top level is
    passed or the hop budget runs out — and the number of failovers. *)
val walk_degraded :
  t -> Cr_sim.Walker.t -> dest_name:int ->
  Cr_sim.Scheme.route_status * int

(** [directory_bits t v] is node [v]'s storage above the underlying
    labeled scheme's: its netting-tree parent label, its shares of the
    directory trees, and its links. *)
val directory_bits : t -> int -> int

(** [table_bits t v] is the measured per-node storage in bits:
    {!directory_bits} plus the underlying labeled scheme's tables. *)
val table_bits : t -> int -> int

(** [to_scheme t] is [t] as the harness routes it: each route runs {!walk}
    on a fresh walker with the name-independent budget
    ([Walker.ni_budget]). *)
val to_scheme : t -> Cr_sim.Scheme.name_independent

(** [degraded_scheme t ~failures] routes by {!walk_degraded} over a fixed
    failure set (a route from a failed source is [Undeliverable] at zero
    cost). *)
val degraded_scheme :
  t -> failures:Cr_sim.Failures.t -> Cr_sim.Scheme.degraded
