(** Ball packings (Packing Lemma 2.3).

    For each j, the packing B_j is a maximal set of pairwise-disjoint
    canonical balls of exactly 2^j nodes, chosen greedily by increasing
    radius r_u(j). The lemma's two properties, which the scale-free schemes
    lean on, are certified constructively:

    1. every packed ball has exactly 2^j members;
    2. for every node u there is a packed ball B with center c such that
       r_c(j) <= r_u(j) and d(u, c) <= 2 r_u(j) — recorded as u's
       [covering] witness during the greedy scan.

    Balls are node *sets* (the 2^j nodes closest to the center, distance
    then id order), so "disjoint" means disjoint member sets. *)

type ball = {
  center : int;
  radius : float;  (** r_center(j) *)
  members : int array;  (** exactly 2^j nodes, sorted by (distance, id) *)
}

type level

(** [build_all m] is the array of packings for j = 0 .. floor(log2 n). *)
val build_all : Cr_metric.Metric.t -> level array

(** [size_exponent lv] is j. *)
val size_exponent : level -> int

(** [balls lv] lists the packed balls, in greedy selection order. *)
val balls : level -> ball list

(** [covering_ball lv u] is the Property-2 witness for node [u]. *)
val covering_ball : level -> int -> ball

(** [centers lv] is the sorted list of packed-ball centers. *)
val centers : level -> int list
