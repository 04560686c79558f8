(** The route-serving engine: compiled routing state with an
    allocation-free lookup path and batched query evaluation.

    An engine is built from a constructed scheme by a [compile_*]
    function: the scheme's forwarding state is flattened into immutable
    int/float arrays (ring tables travel through [Cr_codec]'s wire format
    — see {!Tables}), and routes are then *served* from the arena. The
    labeled and baseline engines run drivers that replay their scheme's
    forwarding decisions step for step; the name-independent engines run
    the schemes' own lookup loop, [Cr_core.Ni_route], over compiled hub
    rows and the compiled underlying labeled engine. Every driver moves
    the packet through a [Cr_sim.Walker.mover]: a real walker ([walk]),
    the lean serving cursor ([route]), or a probe that stops at the first
    move ([next_hop]).

    The equivalence contract, enforced by the differential test suite and
    the E20 bench gate: for every (src, dst), a served route visits the
    same nodes in the same order as the scheme's own walker — [walk]
    through a real [Cr_sim.Walker] produces a byte-identical event trace,
    and [route] reproduces the walker's cost and hop count exactly
    (identical float operations in identical order).

    Destinations are always given as node ids; name-independent engines
    translate through their compiled naming internally, exactly as the
    harness's [route_to_name] callers do. *)

type t

(** {1 Compilation}

    Each compiler flattens one scheme. [obs] (default: the global trace
    context) wraps the work in a ["serve.compile.<kind>"] span; per-node
    work fans out over [pool] with arenas identical whatever the pool
    size. *)

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
    (its arena executes every zoom/search/deliver leg). Raises
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
    the name-independent pair) derive it by probing the driver for its
    first movement. *)
val next_hop : t -> src:int -> dst:int -> int

(** [walk t w ~dst] drives walker [w] to [dst] from the compiled state —
    the differential harness runs this against the scheme's own walk and
    compares traces byte for byte. *)
val walk : t -> Cr_sim.Walker.t -> dst:int -> unit

(** [route ?cost ?live t ~src ~dst] serves one route on a lean internal
    cursor (same moves, costs, and [Cost] accounting as a walker, minus
    the trace/trail machinery). An enabled [live] accumulator gets one
    clock tick, every graph-edge traversal, and the route outcome
    (served routes always deliver; the stretch sample is cost over the
    metric distance). [live] is not thread-safe — route from one domain
    per accumulator. Raises [Invalid_argument] on out-of-range endpoints
    and [Walker.Hop_budget_exhausted] past the scheme's hop budget, like
    the walker would. *)
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
    wire size of codec-backed tables plus flat-array fields, counted at
    their stored width. Comparable against the scheme's [table_bits]
    budget gates. *)
val compiled_bits : t -> int -> int

(** [bytes_per_node t] is the engine's total arena footprint (machine
    words of scheme-specific arrays, excluding the shared graph/metric)
    in bytes, divided by n. *)
val bytes_per_node : t -> float

(** [fallbacks t] is the count of netting-descent fallbacks taken by
    served scale-free-labeled routes (through any engine layered on one);
    0 for other engines. *)
val fallbacks : t -> int
