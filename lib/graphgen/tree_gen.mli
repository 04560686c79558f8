(** Tree-shaped networks. Trees are doubling when their branching is
    bounded; the random attachment model below keeps degrees small. *)

(** [random_attachment ~n ~max_degree ~seed] grows a tree node by node, each
    new node attaching by a unit edge to a uniformly random earlier node
    that still has spare degree. *)
val random_attachment : n:int -> max_degree:int -> seed:int -> Cr_metric.Graph.t
