(** Degree-independent compact tree routing via heavy-path labels — the
    Fraigniaud-Gavoille / Thorup-Zwick construction behind Lemma 4.1.

    A node's label describes the root-to-node path as the sequence of its
    light-edge exits: for each heavy path traversed, the position at which
    the path is left and the id of the light child entered, plus the final
    position on the node's own heavy path. Since any root-to-node path
    crosses at most floor(log2 k) light edges (Heavy_path), labels are
    O(log^2 k) bits.

    The routing decision at a node w toward label(v) needs only w's *own*
    label, its parent, and its heavy child — O(log^2 k) bits per node,
    independent of degree (the id of a light child to descend into is read
    out of the *destination's label*, not from a local child table). This
    removes the O(deg log n) table term of Interval_routing; the paper's
    additional log log n factor comes from a tighter variable-length label
    encoding that we do not replicate (labels here are word-aligned).

    Routes are optimal (along the unique tree path), identical to
    Interval_routing's — asserted by the test suite. *)

type t

(** A routing label: the light-exit sequence plus the final heavy-path
    position. *)
type label = {
  exits : (int * int) list;  (** (position on path, light child entered) *)
  final_pos : int;  (** position on the destination's own heavy path *)
}

(** [build tree] computes heavy paths, positions, and labels. *)
val build : Tree.t -> t

(** [label t v] is v's routing label. *)
(* cr_lint: allow dead-export -- the scheme's routing, which test_tree_routing checks pair by pair *)
val label : t -> int -> label

(** [max_label_bits t] is the largest label. *)
val max_label_bits : t -> int

(** [route t ~src ~dest] is the full path and its cost. *)
(* cr_lint: allow dead-export -- the scheme's routing, which test_tree_routing checks pair by pair *)
val route : t -> src:int -> dest:label -> int list * float

(** [table_bits t v] is the per-node routing state in bits: parent id,
    heavy-child id, and the node's own label. Degree-independent. *)
val table_bits : t -> int -> int
