(** The netting tree T({Y_i}) and its DFS leaf enumeration (Sections 2, 4.1).

    Tree vertices are pairs (x, i) with x in Y_i; the parent of (x, i) is
    (x', i+1) where x' is the node of Y_(i+1) nearest to x — exactly the
    next step of x's zooming sequence, so every node's zooming sequence
    u(0) = u, u(1), ... is the leaf-to-root path from (u, 0). The tree
    stores those paths as one flat row per leaf ({!ancestor}), the only
    copy of the zooming sequences: routes climb them, and the parent
    pointers are read from them. Eqn (2) bounds the zigzag cost:
    sum_k d(u(k-1), u(k)) < 2^(i+1).

    The label function l : V -> [n) enumerates the leaves in DFS order
    (children visited in increasing id order). Range(x, i) is the contiguous
    interval of leaf labels in the subtree of (x, i); the key property
    (Section 4.1) is: l(u) in Range(x, i) iff x = u(i). *)

type t

type range = { lo : int; hi : int }

(** [build ?obs h] assembles the tree, labels, and ranges for hierarchy
    [h] (traced as a [netting_tree.build] span). *)
val build : ?obs:Cr_obs.Trace.context -> Hierarchy.t -> t

(** [hierarchy t] is the underlying net hierarchy. *)
val hierarchy : t -> Hierarchy.t

(** [label t v] is l(v), the DFS index of leaf (v, 0). *)
val label : t -> int -> int

(** [node_of_label t l] inverts [label]. *)
val node_of_label : t -> int -> int

(** [range t ~level x] is Range(x, level). Raises [Invalid_argument] if
    [x] is not in Y_level. *)
val range : t -> level:int -> int -> range

(** [in_range r l] is true iff [r.lo <= l <= r.hi]. *)
val in_range : range -> int -> bool

(** [ancestor t u ~level] is u(level), the level-[level] ancestor of leaf
    (u, 0): the node of Y_level nearest to u(level - 1), ties to the least
    id, with u(0) = u. An O(1) read. Raises [Invalid_argument] if [level]
    is outside [0, top]. *)
val ancestor : t -> int -> level:int -> int

(** [parent t ~level x] is the parent net point of (x, level) at
    [level + 1], x's ancestor at [level + 1]. Raises [Invalid_argument] at
    the top level or if [x] is not in Y_level. *)
val parent : t -> level:int -> int -> int

(** [children t ~level x] is the list of child net points of (x, level) at
    [level - 1], increasing ids. *)
val children : t -> level:int -> int -> int list
