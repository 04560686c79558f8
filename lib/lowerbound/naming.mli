(** Congruent-naming counting (Section 5.1).

    The lower bound hinges on a pigeonhole: with beta-bit routing tables
    there are at most 2^(beta |V'|) distinct table configurations on a node
    set V', but n! namings, so huge families of namings must be *congruent*
    (identical tables on V') — and the routing algorithm cannot distinguish
    them until it leaves V' (Lemma 5.4, Corollary 5.7).

    Two tools: exact log-domain arithmetic reproducing Lemma 5.4's bounds
    for real parameter values, and a small-n exhaustive demonstration that,
    for *any* routing configuration function, congruent families of the
    guaranteed size exist. *)

(** [log2_factorial n] is log2(n!) (exact summation). *)
val log2_factorial : int -> float

(** [log2_congruent_bound ~n ~beta ~c ~i] is Lemma 5.4's guarantee in bits:
    log2(n!) - beta * n^(i/c), a lower bound on log2 |L_i|. *)
val log2_congruent_bound : n:int -> beta:float -> c:int -> i:int -> float

(** [table_bits_bound ~n ~epsilon] is the Theorem 1.3 threshold
    n^((eps/60)^2) (in bits) below which stretch 9 - eps is forced. *)
val table_bits_bound : n:int -> epsilon:float -> float

(** [demonstrate_pigeonhole ~n ~beta_bits ~prefix ~config] enumerates all
    n! namings of [0, n), buckets them by the table configuration that
    [config naming node] assigns to the first [prefix] nodes, and returns
    the size of the largest bucket — a concrete congruent family. The
    Lemma 5.4 bound guarantees it is at least n! / 2^(beta_bits * prefix).
    Requires n <= 8. *)
val demonstrate_pigeonhole :
  n:int -> beta_bits:int -> prefix:int -> config:(int array -> int -> int) ->
  int

(** [lemma54_floor ~n ~beta_bits ~prefix] is that guaranteed bucket size,
    ceil(n! / 2^(beta_bits * prefix)). *)
val lemma54_floor : n:int -> beta_bits:int -> prefix:int -> int
