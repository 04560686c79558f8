(** Memoized lazy distance oracle: the scale tier's replacement for the
    dense [Cr_metric.Metric] matrix.

    Where [Metric.of_graph] materializes all n^2 distances up front, an
    oracle computes full single-source rows on demand ([Dijkstra.run] per
    miss), caches up to [budget] of them with FIFO eviction, and normalizes
    the graph exactly like the dense path: the minimum pairwise shortest
    distance equals the minimum edge weight (a shortest path of >= 2
    positive edges is at least as long as either edge, exactly, even in
    floats), so scaling by [1 / min-edge-weight] reproduces
    [Metric.of_graph]'s normalization bit for bit on the shared graph.
    Distances are one-sided d(u -> v) rows; the dense matrix additionally
    symmetrizes opposing rows by [Float.min], so on float-weighted graphs a
    cached row can sit one ulp from the matrix entry (weight-1 families are
    exact). Work is first-class: every miss runs under a
    ["scale.oracle.sssp"] span with [scale.oracle.*] counters when the
    context is enabled, and [snapshot] exposes the tallies either way. *)

type t

(** Cumulative work counters since [create]. *)
type snapshot = {
  sssp_runs : int;  (** full single-source runs executed (= misses) *)
  settled : int;  (** nodes settled across those runs ([n] per run) *)
  hits : int;  (** row requests served from cache *)
  misses : int;  (** row requests that ran Dijkstra *)
  evictions : int;  (** cached rows dropped to respect [budget] *)
  cached : int;  (** rows currently resident *)
}

(** [create ?obs ?budget graph] wraps a connected graph ([budget] defaults
    to 64 cached rows). Raises [Invalid_argument] for [budget < 1], fewer
    than 2 nodes, or a disconnected graph. *)
val create : ?obs:Cr_obs.Trace.context -> ?budget:int -> Cr_metric.Graph.t -> t

(** [graph t] is the normalized graph (min edge weight 1.0): the substrate
    every scale-tier search runs on. *)
val graph : t -> Cr_metric.Graph.t

(** [n t] is the node count. *)
val n : t -> int

(** [row t u] is the full distance row d(u, .) on the normalized graph —
    from cache when resident (the zero-alloc fast path), else computed,
    cached, and possibly evicting the oldest row. The returned array is
    shared with the cache: treat it as read-only, and do not hold it across
    further oracle calls that may evict it. *)
(* cr_lint: allow dead-export -- test hook: test_scale checks the row cache's eviction with it *)
val row : t -> int -> float array

(** [levels_upper t] is an upper bound on the hierarchy depth:
    ceil(log2 (2 * ecc(0))) >= ceil(log2 diameter), computed from row 0
    (one SSSP instead of the dense all-pairs diameter). At least 1. *)
val levels_upper : t -> int

(** [snapshot t] reads the work counters. *)
val snapshot : t -> snapshot
