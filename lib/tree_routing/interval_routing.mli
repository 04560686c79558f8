(** Labeled routing on trees (the Lemma 4.1 substrate).

    Labels are DFS numbers — ceil(log2 k) bits for a k-node tree, matching
    the paper's optimal label size — and every node stores its own DFS
    interval plus one interval per child. Routing is optimal (always along
    the unique tree path): at a node whose interval does not contain the
    destination label the packet goes to the parent, otherwise into the
    unique child whose interval contains it.

    This trades the degree-independent O(log^2 n / log log n)-bit tables of
    Fraigniaud-Gavoille / Thorup-Zwick for a much simpler encoding whose
    measured size is O(deg log n) bits; the trees built by the schemes have
    (1/eps)^(O(alpha))-bounded or graph-bounded degree, so measured tables
    stay polylogarithmic (see DESIGN.md, substitution 2). Routes — the
    quantity the stretch theorems consume — are identical. *)

type t

(** [build tree] precomputes DFS numbers and intervals. *)
val build : Tree.t -> t

(** [label t v] is the DFS number of node [v]. *)
val label : t -> int -> int

(** [route t ~src ~dest_label] is the full node path from [src] to the
    destination (inclusive) together with its tree cost. *)
val route : t -> src:int -> dest_label:int -> int list * float

(** [table_bits t v] is the measured routing-table size at [v] in bits. *)
val table_bits : t -> int -> int

(** [label_bits t] is the label size in bits (= ceil(log2 size)). *)
val label_bits : t -> int
