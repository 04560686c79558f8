(** Rooted, edge-weighted trees over arbitrary (external) node ids.

    Used for every tree-shaped structure in the schemes: Voronoi
    shortest-path trees T_c(j), search trees over balls, and spanning-tree
    baselines. Nodes keep their graph ids; edges carry the travel cost a
    packet pays to cross them. *)

type t

(** [of_parents ~root ~nodes ~parent ~weight] builds a tree on [nodes]
    (which must include [root]): [parent v] is [v]'s parent id
    (ignored for the root) and [weight v] the cost of the edge to it.
    Raises [Invalid_argument] if the parent pointers do not form a tree on
    exactly [nodes] rooted at [root], or if any weight is negative. *)
val of_parents :
  root:int -> nodes:int list -> parent:(int -> int) -> weight:(int -> float) ->
  t

(** [root t] is the root's external id. *)
val root : t -> int

(** [size t] is the number of nodes. *)
val size : t -> int

(** [parent t v] is [Some (parent, weight)] or [None] for the root. *)
val parent : t -> int -> (int * float) option

(** [children t v] lists (child, weight) pairs, increasing child id. *)
val children : t -> int -> (int * float) list
