(** Voronoi partitions of a center set and their shortest-path trees
    (Section 4.1: regions V(c, j) and trees T_c(j)).

    Cells are computed by a multi-source Dijkstra whose (distance, center)
    lexicographic tie-breaking makes every cell prefix-closed: the
    predecessor of a node lies in the same cell, so the per-cell
    predecessor forests *are* shortest-path trees rooted at the centers and
    spanning exactly their cells — precisely the T_c(j) the labeled scheme
    routes on. *)

type t

(** [build m ~centers] partitions the nodes of [m] among [centers].
    Raises [Invalid_argument] on an empty center list. *)
val build : Cr_metric.Metric.t -> centers:int list -> t

(** [owner t v] is the center whose cell contains [v]. *)
val owner : t -> int -> int

(** [parent t v] is [v]'s parent in its cell's shortest-path tree
    (-1 for centers). *)
val parent : t -> int -> int

(** [cell t ~center] is the sorted list of nodes owned by [center]. *)
val cell : t -> center:int -> int list
