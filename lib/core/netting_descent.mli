(** Guaranteed-delivery fallback: climb the packet's zooming sequence to the
    netting-tree root, then descend ranges to the destination label.

    The paper's schemes always deliver under their theorems' premises; this
    module is an engineering safety net so that an implementation-level
    corner case (e.g. float ties shifting a ring boundary) degrades to a
    correct but expensive route instead of a lost packet. Schemes count
    every fallback invocation and the experiment harness asserts the count
    stays zero; fallback storage is therefore *excluded* from the measured
    routing tables (DESIGN.md, substitution discussion). *)

(** [walk nt w ~dest_label] moves walker [w] from wherever it is to the
    node labeled [dest_label]: up its own zooming sequence to the root
    ([Netting_tree.ancestor]), then down the netting tree along ranges,
    walking real shortest paths between consecutive net points. *)
val walk : Cr_nets.Netting_tree.t -> Cr_sim.Walker.t -> dest_label:int -> unit
