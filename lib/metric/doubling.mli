(** Empirical doubling-dimension estimation.

    The doubling dimension alpha of a metric is the least value such that
    every ball B_u(r) can be covered by at most 2^alpha balls of radius r/2
    (Section 1.1). Computing alpha exactly is NP-hard in general; we bound it
    from above with a greedy cover: a greedy (r/2)-net of B_u(r) covers the
    ball, and its size is within the usual constant-factor blowup of the
    optimum, which is the standard surrogate in the literature. *)

(** [estimate m] is log2 of the largest greedy half-cover over every center
    and every power-of-two radius between the minimum distance and the
    diameter — an upper bound witness for alpha. *)
(* cr_lint: allow dead-export -- the exhaustive reference the sampled estimate is checked against *)
val estimate : Metric.t -> float

(** [estimate_sampled m ~samples ~seed] examines only [samples] random
    (center, radius) pairs; cheaper on large metrics. *)
val estimate_sampled : Metric.t -> samples:int -> seed:int -> float
