(** Bit-size accounting for routing tables, labels, and headers.

    Every space bound in the paper is stated in bits; the experiment harness
    measures the same way. Conventions: a node id or label in an n-node
    network costs ceil(log2 n) bits; a DFS range costs two labels; a distance
    value stored in a table costs [distance_bits] (we charge a fixed 32-bit
    fixed-point representative, documented in EXPERIMENTS.md); a level or
    ring index costs ceil(log2 (levels+1)) bits. *)

(** [ceil_log2 k] is the least [b] with [2^b >= k]; 0 for [k <= 1].
    Raises [Invalid_argument] for [k <= 0]. *)
val ceil_log2 : int -> int

(** [id_bits n] = bits to name one of [n] things = [ceil_log2 n]. *)
val id_bits : int -> int

(** [range_bits n] = bits for a [lo, hi] interval of labels. *)
val range_bits : int -> int

(** [distance_bits] = fixed cost charged per stored distance/radius. *)
val distance_bits : int
