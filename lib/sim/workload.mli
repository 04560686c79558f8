(** Workload generation: source-destination pairs and node namings.

    Name-independent routing is evaluated against *adversarially arbitrary*
    node names; we model them as seeded random permutations of [0, n), plus
    an identity naming for debugging. *)

(** [sample_pairs ~n ~count ~seed] draws [count] ordered pairs with
    u <> v, uniformly with replacement. *)
val sample_pairs : n:int -> count:int -> seed:int -> (int * int) list

(** [pairs_for ~n ~seed ~budget] is [all_pairs n] when n(n-1) <= budget and
    a sample of [budget] pairs otherwise — the harness's default policy. *)
val pairs_for : n:int -> seed:int -> budget:int -> (int * int) list

(** [zipf_sampler ~n ~alpha ~seed] is the keyed Zipf([alpha]) node draw
    shared by [zipf_pairs] and the scale tier's sampled-pair harness
    ([Cr_scale.Eval]): cumulative rank weights and a seeded rank-to-node
    permutation built once, then each application is a pure inverse-CDF
    function of its key. [alpha = 0] degenerates to uniform. Raises
    [Invalid_argument] when [n < 1] or [alpha] is negative, non-finite,
    or NaN. *)
val zipf_sampler :
  n:int -> alpha:float -> seed:int -> Cr_graphgen.Splitmix.key -> int

(** [zipf_pairs ~n ~alpha ~count ~seed] draws [count] ordered pairs with
    [u <> v] whose endpoints are Zipf([alpha])-distributed over
    popularity ranks — the skewed traffic matrix a large user population
    generates (ROADMAP item 4); [alpha = 0] degenerates to uniform. A
    seeded permutation maps ranks to node ids, and every endpoint draw
    is keyed by (seed, pair index, draw index) through
    [Cr_graphgen.Splitmix], so pair [i] is a pure function of the seed:
    deterministic across hosts, evaluation orders, and domain counts.
    Destination draws that collide with the source resample a bounded
    number of times, then fall back to a keyed uniform draw over the
    remaining nodes — so generation terminates even for skews degenerate
    enough to collapse the float CDF onto one node. Raises
    [Invalid_argument] when [n < 2], [count] is negative, or [alpha] is
    negative, non-finite, or NaN. *)
val zipf_pairs :
  n:int -> alpha:float -> count:int -> seed:int -> (int * int) list

type naming = {
  name_of : int array;  (** node -> name *)
  node_of : int array;  (** name -> node *)
}

(** [random_naming ~n ~seed] is a uniform permutation naming. *)
val random_naming : n:int -> seed:int -> naming
