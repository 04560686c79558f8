(** Deterministic fixed-size quantile sketch, the one {!Live} keeps per
    window and per run.

    A fixed array of log-spaced bucket counters (DDSketch-style): values
    below {!v_min} share an underflow bucket, values past the top share
    an overflow bucket, and everything between lands in one of the
    geometrically-spaced buckets.

    Rank guarantee: {!quantile} returns the bucket representative
    of the {e exact} nearest-rank sample (rank error zero); the only
    error is value discretization, bounded by
    [rank_error_bound * true_value] relative for in-range values and by
    [v_min] absolute below the range (tracked exact min/max serve the
    extremes). *)

type t

(** Lower edge of the log-spaced range; smaller observations share the
    underflow bucket at absolute error <= [v_min]. *)
(* cr_lint: allow dead-export -- the stated error bound test_live checks quantiles against *)
val v_min : float

(** Relative value-error bound for in-range observations:
    [sqrt gamma - 1] for bucket ratio [gamma]. *)
(* cr_lint: allow dead-export -- the stated error bound test_live checks quantiles against *)
val rank_error_bound : float

val create : unit -> t

(** [add t x] absorbs one observation. Negative and NaN observations
    clamp into the underflow bucket. *)
val add : t -> float -> unit

val count : t -> int

val max_value : t -> float

(** [quantile t p] estimates the nearest-rank [p]-quantile
    (rank [ceil (p * count)], matching [Cr_sim.Stats]); 0.0 while
    empty. The estimate is clamped into the exact range of the
    observations. *)
val quantile : t -> float -> float
