(** Grid networks.

    The 2-D grid is the canonical growth-bounded (hence doubling) metric;
    grids with nodes deleted ("holes") are the paper's motivating example of
    a metric that stays doubling but stops being growth-bounded
    (Section 1). *)

(** [square ~side] is the [side x side] grid with unit edge weights;
    node (r, c) has id [r * side + c]. *)
val square : side:int -> Cr_metric.Graph.t

(** [with_holes ~side ~hole_fraction ~seed] deletes approximately
    [hole_fraction] of the nodes uniformly at random and returns the largest
    remaining connected component (renumbered). [hole_fraction] must be in
    [0, 0.5]. *)
val with_holes :
  side:int -> hole_fraction:float -> seed:int -> Cr_metric.Graph.t
