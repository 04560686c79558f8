(** The route-serving engine: compiled routing state with an
    allocation-free lookup path and batched query evaluation.

    An engine is built from a constructed scheme by a [compile_*]
    function, and routes are then *served* from it. The labeled engines
    serve the scheme's own ring store ([Cr_core.Rings], the
    piece-indexed arena the scheme walks) and compile nothing of it.
    Every scheme's forwarding rule is written once, in [Cr_core], and the
    engines run that same code: the labeled engines run
    [Cr_core.Hier_labeled.route_over] (Lemma 3.1's descent, bound to
    [Rings.next_hop]) and [Cr_core.Scale_free_labeled.route_over]
    (Algorithm 5, over the scheme's router with a fallback counter of the
    engine's own); the name-independent engines run [Cr_core.Ni_route]
    over compiled hub rows and the underlying labeled engine. The full-table and
    landmark engines replay their baseline's route from compiled rows.
    Every driver moves the packet on a [Cr_sim.Walker.t], the only
    executor: [walk] runs it on the caller's walker, [route] on a fresh
    untraced one, and the per-route engines' [next_hop] on one whose
    budget stops it after the first move.

    The equivalence contract, enforced by the differential test suite and
    the E20 bench gate: for every (src, dst), a served route visits the
    same nodes in the same order as the scheme's own walker. A served
    and a walked route share every decision and every move, so this holds
    by construction, and what the suite checks is the compiled data:
    [walk] produces an event trace byte-identical to the scheme's own,
    and [route] reproduces the walker's cost and hop count exactly.

    Destinations are always given as node ids; name-independent engines
    translate through their compiled naming internally, exactly as the
    harness's [route_to_name] callers do. *)

type t

(** {1 Compilation}

    Each compiler wraps one scheme. [obs] (default: untraced) wraps the
    work in a ["serve.compile.<kind>"] span. The labeled and
    name-independent compilers ignore [pool]: they build only label and
    hub rows. [compile_full] and [compile_landmark] fan their per-node
    rows out over [pool], with rows identical whatever the pool size. *)

val compile_hier :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Hier_labeled.t -> t

val compile_scale_free_labeled :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Scale_free_labeled.t -> t

(** [compile_simple_ni ~underlying scheme] serves the Theorem 1.4 scheme
    by running its {!Cr_core.Ni_route} lookup loop with the hubs flattened
    into rows. [underlying] must be an engine compiled from the same
    labeled scheme instance the name-independent scheme was built over
    (its ring store executes every zoom/search/deliver leg). Raises
    [Invalid_argument] if [underlying] is not a labeled engine over the
    same node count. [compile_scale_free_ni] does the same for the
    Theorem 1.1 scheme. *)
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

(** [scheme_name t] is the display name of the scheme served — identical
    to the harness name ([Scheme.l_name] / [ni_name]), so report check
    rules classify served rows the same way. *)
val scheme_name : t -> string

(** [kind t] is the short engine tag: ["hier"], ["sfl"], ["simple-ni"],
    ["sf-ni"], ["full"], or ["landmark"]. *)
val kind : t -> string

val n : t -> int

(** {1 Serving} *)

(** [next_hop t ~src ~dst] is the first node a served route from [src]
    leaves toward (-1 when [src = dst]). For the stateless-per-hop engines
    (hier, full, landmark) this is a pure array scan — no allocation, the
    E20 [Gc.minor_words] gate covers it. The per-route engines (sfl and
    the name-independent pair) run their driver on a walker with a
    one-hop budget and answer its position once the second move is
    refused; they raise [Invalid_argument] if the route does not leave
    [src]. *)
val next_hop : t -> src:int -> dst:int -> int

(** [walk t w ~dst] drives walker [w] to [dst] from the compiled state —
    the differential harness runs this against the scheme's own walk and
    compares traces byte for byte. *)
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

(** [bytes_per_node t] is the engine's total arena footprint in bytes,
    divided by n: the machine words of its scheme-specific arrays plus
    the adjacency at its packed size, (n + 1) + 2·Σdeg words (row
    offsets, then a neighbour id and a weight per directed edge),
    computed once at compile. The metric's tables are not charged. *)
val bytes_per_node : t -> float

(** [fallbacks t] is the count of netting-descent fallbacks taken by
    served scale-free-labeled routes (through any engine layered on one);
    0 for other engines. *)
val fallbacks : t -> int
