(** The tiny-table endpoint of the trade-off: route everything over one
    shortest-path spanning tree with interval routing. Tables are
    O(deg log n) bits and labels ceil(log n) bits, but the stretch is
    unbounded in general (e.g. Theta(n) on a ring when the tree-path wraps
    the wrong way) — the contrast row for Tables 1 and 2 (its
    name-independent row is [Cr_sim.Scheme.with_name_directory] over it). *)

(** [labeled m ~root] builds interval routing over the shortest-path tree
    rooted at [root]; its walk steps along the tree path. *)
val labeled : Cr_metric.Metric.t -> root:int -> Cr_sim.Scheme.labeled
