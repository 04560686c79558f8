(** Streaming traffic telemetry: sliding windows over routed traffic,
    per-window quantile sketches, and heavy-hitter top-k (ROADMAP item 4).

    {!Cost} answers "what did the whole run cost"; [Live] answers "what is
    hot {e right now} and how did it evolve as load ramped". A {!t} is an
    accumulator threaded through [Cr_sim.Walker], [Cr_sim.Stats] and
    [Cr_serve.Engine]: each routed message advances a {e logical clock}
    ({!tick} — routed-message count, never wall time, so output stays
    deterministic), route outcomes land in the current window
    ({!record}), and every traversed edge lands in both the window's and
    the run's utilization tables ({!record_edge}).

    Like {!Cost}, the accumulator follows the null-context pattern:
    {!null} is permanently disabled, {!record}/{!record_edge}/{!tick} on
    it are no-ops whose disabled path is proven allocation-free by the
    typed lint tier, and call sites guard with
    [if Live.enabled live then ...] (enforced by the trace-guard rule).

    Determinism contract: all sketches are deterministic functions of the
    recorded stream, every accessor sorts its output, and recording
    happens on the calling domain only (the structure is {b not}
    thread-safe) — so feeding it in pair order, as [Stats] and [Engine]
    do, makes snapshots byte-identical across [CR_DOMAINS] settings. *)

type status = Delivered | Rerouted | Undeliverable

type t

(** Aggregate utilization of one undirected edge [(u, v)] with [u < v]. *)
type edge_load = {
  u : int;
  v : int;
  messages : int;
}

(** A heavy-hitter table entry ({!Topk.entry} with decoded key). *)
type hot = {
  hot_key : int;  (** node id *)
  hot_count : int;
  hot_err : int;
}

type hot_edge = {
  he_u : int;
  he_v : int;
  he_count : int;
  he_err : int;
}

(** One retained window's statistics. Quantiles follow [Cr_sim.Stats]'s
    nearest-rank convention; [latency] is route cost, the latency proxy
    of a metric-space simulation. *)
type window_stats = {
  ws_index : int;  (** window number since creation, 0-based *)
  ws_routes : int;
  ws_delivered : int;
  ws_rerouted : int;
  ws_undeliverable : int;
  ws_delivery_rate : float;  (** (delivered + rerouted) / routes; 1.0 while empty *)
  ws_stretch_p50 : float;
  ws_stretch_p95 : float;
  ws_stretch_p99 : float;
  ws_stretch_max : float;
  ws_hops_p50 : float;
  ws_hops_p99 : float;
  ws_latency_p50 : float;
  ws_latency_p99 : float;
  ws_edge_messages : int;  (** edge traversals in this window *)
  ws_util_max : int;  (** max messages on any single edge this window *)
  ws_edges_touched : int;
  ws_top_edges : hot_edge list;  (** k heaviest, Space-Saving estimates *)
  ws_top_dsts : hot list;
  ws_top_srcs : hot list;
}

(** Whole-run aggregates (including windows already rotated out). *)
type totals = {
  t_routes : int;
  t_delivered : int;
  t_rerouted : int;
  t_undeliverable : int;
  t_delivery_rate : float;
  t_stretch_p50 : float;
  t_stretch_p95 : float;
  t_stretch_p99 : float;
  t_stretch_max : float;
  t_edge_messages : int;  (** conservation invariant: equals the {!Cost}
                              ledger's edge-message total when a walker
                              carries both accumulators *)
  t_util_max : int;  (** max per-edge messages within any one window *)
}

(** The disabled accumulator: {!enabled} is [false], recording is a
    no-op, every accessor reports emptiness. *)
val null : t

(** [create ?window ?depth ?k ?capacity ()] is an enabled accumulator:
    a ring of [depth] windows (default 8) of [window] ticks each
    (default 256), reporting [k] heavy hitters (default 5) from
    Space-Saving sketches of [capacity] counters (default 64). Raises
    [Invalid_argument] on non-positive sizes or [capacity < k]. *)
val create : ?window:int -> ?depth:int -> ?k:int -> ?capacity:int -> unit -> t

val enabled : t -> bool

(** [tick t] advances the logical clock by one routed message, rotating
    to a fresh window every [window] ticks (the oldest retained window is
    evicted once [depth] windows are live). Call once per routed message,
    before recording its outcome. No-op when disabled. *)
val tick : t -> unit

(** Total ticks so far. *)
(* cr_lint: allow dead-export -- test hook: test_live checks the window ring's rotation with it *)
val clock : t -> int

(** Windows rotated out of the ring so far. *)
(* cr_lint: allow dead-export -- test hook: test_live checks the window ring's rotation with it *)
val evicted : t -> int

(** [record t ~src ~dst ~status ~dist ~cost ~hops] lands one route
    outcome in the current window: outcome counters, the destination /
    source heavy-hitter sketches, and — when the route arrived and
    [dist > 0] — the stretch ([cost/dist]), hop and latency quantile
    sketches. No-op when disabled. *)
val record :
  t ->
  src:int -> dst:int -> status:status -> dist:float -> cost:float ->
  hops:int -> unit

(** [record_edge t ~src ~dst] charges one message to the undirected edge
    [(src, dst)] in the current window's and the run's utilization
    tables and the window's edge heavy-hitter sketch. Endpoints must be
    distinct ids in [[0, 2^20)]; anything else is ignored (out-of-band
    moves carry no edge). No-op when disabled. *)
val record_edge : t -> src:int -> dst:int -> unit

(** Retained windows, oldest first. *)
val windows : t -> window_stats list

val totals : t -> totals

(** Whole-run per-edge traversal counts (exact, not sketched), sorted by
    [(u, v)]. *)
(* cr_lint: allow dead-export -- test hook: test_live checks the exact per-edge tables with it *)
val edge_totals : t -> edge_load list

(** [hot_edges t] is the run's [k] most-traversed edges (exact counts):
    messages descending, then [(u, v)] ascending. *)
val hot_edges : t -> edge_load list

(** Run-level heavy-hitter destinations / sources (Space-Saving
    estimates, {!Topk.top} order). *)
val hot_dsts : t -> hot list

(** Deterministic human-readable rendering: a per-window table plus run
    totals and heavy-hitter lists — the canonical byte-comparable
    snapshot used by tests ([CR_DOMAINS=1/4] byte-identity) and
    [crdemo live]. *)
val render : t -> string
