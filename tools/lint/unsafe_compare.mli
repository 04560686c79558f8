(** no-unsafe-compare: no polymorphic compare/(=) on float distance values in lib/core, lib/metric, lib/packing, lib/nets, lib/search_tree and lib/tree_routing. See the implementation header for the full design. *)

val rule : Rule.t
