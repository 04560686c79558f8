(** Flat CSR adjacency: the serving engine's allocation-free view of the
    graph.

    [Graph.t] stores neighbor lists as linked lists; a route server doing
    millions of lookups wants the edges in three contiguous arrays instead.
    Neighbor rows are sorted by id so edge-weight queries are one binary
    search with no allocation. *)

type t

val of_graph : Cr_metric.Graph.t -> t

val n : t -> int

(** [degree t u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** [edge_exn t u v] is the index of edge (u, v) in the arena. Raises
    [Invalid_argument] if [v] is not a neighbor of [u] — the same contract
    as [Walker.step] on a non-edge. Allocation-free. *)
val edge_exn : t -> int -> int -> int

(** [weights t] is the arena's weight array, aligned with [edge_exn]'s
    indices; callers only read it. Reading a weight out of it in the
    caller's own code keeps the float unboxed, which a float returned
    across a module boundary is not where cross-module inlining is off
    (dune's dev profile compiles [-opaque]). *)
val weights : t -> float array

(** [words t] is the arena size in machine words (array payloads only) —
    the footprint accounting the serving report uses. *)
val words : t -> int
