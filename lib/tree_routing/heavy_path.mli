(** Heavy-path decomposition.

    Each non-leaf keeps its child with the largest subtree ("heavy"); the
    other edges are "light". Any root-to-node path crosses at most
    floor(log2 k) light edges, which is the fact behind the
    O(log^2 n / log log n)-bit tree-routing labels of [14, 29]. The
    decomposition is used here for analysis (tests assert the light-depth
    bound on every tree the schemes build) and by the spanning-tree
    baseline. *)

type t

(** [build tree] computes subtree sizes and heavy children. *)
val build : Tree.t -> t

(** [heavy_child t v] is [Some c] for the unique heavy child of a non-leaf
    (largest subtree, ties to least id). *)
val heavy_child : t -> int -> int option

(** [max_light_depth t] is the maximum light depth over all nodes; always
    at most floor(log2 (size tree)). *)
val max_light_depth : t -> int

(** [head t v] is the topmost node of the heavy path through [v]. *)
val head : t -> int -> int
