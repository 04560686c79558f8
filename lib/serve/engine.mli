(** The route-serving engine: a constructed scheme packaged for serving,
    with an allocation-free lookup path and batched query evaluation.

    An engine is built from a constructed scheme by a [compile_*]
    function, and routes are then *served* from it. An engine serves the
    view the harness routes ([Cr_sim.Scheme.labeled] for the labeled
    schemes and the baselines, [Cr_core.Ni_scheme.t] for the
    name-independent pair): a served route is that view's walk to the
    destination's label or name, so every scheme's forwarding rule is
    written once, in [Cr_core] or [Cr_baselines], and the engine copies
    none of its tables. [walk] runs it on the caller's walker, [route] on
    a fresh untraced one, and [next_hop] on one whose budget stops it
    after the first move. An engine keeps only what it alone has: the
    flat tables [next_hop] answers from without walking (hier's ring
    store read at the destination's label, the full-table rows, the
    landmark bunch rows) and its accounting.

    The equivalence contract, enforced by the differential test suite and
    the E20 bench gate: for every (src, dst), a served route visits the
    same nodes in the same order as the scheme's own walker. A served
    and a walked route are the same walk, so this holds by construction,
    and what the suite checks is the packaging: [walk] produces an event
    trace byte-identical to the scheme's own, [route] reproduces the
    walker's cost and hop count exactly, and [next_hop] answers the
    walk's first move.

    Destinations are always given as node ids; name-independent engines
    translate through the scheme's naming, exactly as the harness's
    [route_to_name] callers do. *)

type t

(** {1 Compilation}

    Each compiler wraps one scheme. [obs] (default: untraced) wraps the
    work in a ["serve.compile.<kind>"] span. The labeled and
    name-independent compilers ignore [pool]: they package the scheme as
    built. [compile_full] and [compile_landmark] fan their per-node rows
    out over [pool], with rows identical whatever the pool size. *)

val compile_hier :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Hier_labeled.t -> t

val compile_scale_free_labeled :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Scale_free_labeled.t -> t

(** [compile_simple_ni ~underlying scheme] serves the Theorem 1.4 scheme's
    walk ({!Cr_core.Ni_scheme.walk}), which travels on the labeled scheme
    it was built over. [underlying] must be an engine compiled from that
    same labeled scheme instance: the name-independent engine counts its
    ring tables in [compiled_bits] and its words in [bytes_per_node].
    Raises [Invalid_argument] if [underlying] is not a hier or sfl engine
    over the same node count. [compile_scale_free_ni] does the same for
    the Theorem 1.1 scheme. *)
val compile_simple_ni :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  underlying:t -> Cr_core.Simple_ni.t -> t

val compile_scale_free_ni :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  underlying:t -> Cr_core.Scale_free_ni.t -> t

(** [compile_full m] is the full-table comparator: one [Metric.first_hops]
    row per node. *)
val compile_full :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t -> Cr_metric.Metric.t -> t

(** [compile_landmark m lm] is the Thorup–Zwick-style landmark comparator:
    per node a sorted bunch row (next hop per bunch member) plus the home
    landmark's row; landmark nodes keep a full row. *)
val compile_landmark :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t -> Cr_baselines.Landmark.t -> t

(** {1 Identity} *)

(** [scheme_name t] is the name of the view served ([Scheme.l_name] /
    [Ni_scheme.name], the harness's [ni_name]), so report check rules
    classify served rows the same way. *)
val scheme_name : t -> string

val n : t -> int

(** {1 Serving} *)

(** [next_hop t ~src ~dst] is the first node a served route from [src]
    leaves toward (-1 when [src = dst]). For the flat-table engines (hier,
    full, landmark) this is a pure array scan — no allocation, the E20
    [Gc.minor_words] gate covers it. The other engines (sfl and the
    name-independent pair) run the walk on a walker with a one-hop budget
    and answer its position once the second move is refused; they raise
    [Invalid_argument] if the route does not leave [src]. *)
val next_hop : t -> src:int -> dst:int -> int

(** [walk t w ~dst] moves walker [w] to [dst] by the served view's walk —
    the differential harness runs this against the scheme's own walk and
    compares traces byte for byte. *)
(* cr_lint: allow dead-export -- the entry point of the served = walked differential (test_serve) *)
val walk : t -> Cr_sim.Walker.t -> dst:int -> unit

(** [route ?cost ?live t ~src ~dst] serves one route on a fresh walker
    with [~obs:Cr_obs.Trace.null] (so that [batch] can serve on pool
    domains), charging [cost] and [live] per hop as the walker does. An
    enabled [live] accumulator gets one clock tick, every graph-edge
    traversal, and the route outcome
    (served routes always deliver; the stretch sample is cost over the
    metric distance). [live] is not thread-safe — route from one domain
    per accumulator. Raises [Invalid_argument] on out-of-range endpoints
    and [Walker.Hop_budget_exhausted] past the scheme's hop budget. *)
val route :
  ?cost:Cr_obs.Cost.t -> ?live:Cr_obs.Live.t ->
  t -> src:int -> dst:int -> Cr_sim.Scheme.outcome

(** [batch ?obs ?pool ?live t pairs] serves every (src, dst) pair
    concurrently over [pool] inside a ["serve.batch.<kind>"] stage.
    Results are in input order and byte-identical whatever the pool
    size. An enabled [live] accumulator forces sequential serving in
    pair order (single-domain telemetry state keyed by a logical clock)
    — the documented observability tax of live telemetry. *)
val batch :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  ?live:Cr_obs.Live.t ->
  t -> (int * int) array -> Cr_sim.Scheme.outcome array

(** {1 Accounting} *)

(** [compiled_bits t v] is node [v]'s serving state in bits: the exact
    wire size of its ring table ([Rings.wire_bits]) plus flat-array
    fields, counted at their stored width. Comparable against the
    scheme's [table_bits] budget gates. *)
val compiled_bits : t -> int -> int

(** [bytes_per_node t] is the footprint of the tables a served route
    reads, in bytes, divided by n, computed once at compile: the
    scheme-specific arrays (the ring store; the netting tree's label and
    inverse-label arrays, 2n words; its ancestor table, n·(top + 1) words,
    for sfl's fallback and for each name-independent engine's hubs; the
    naming, n words; the full-table, landmark and Voronoi rows), plus the
    adjacency at its packed size, (n + 1) + 2·Σdeg words (row offsets,
    then a neighbour id and a weight per directed edge). A
    name-independent engine adds its underlying engine's words, so sf-ni
    over sfl counts the one ancestor table twice. The metric's tables are
    not charged. *)
val bytes_per_node : t -> float
