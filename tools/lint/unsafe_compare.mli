(** no-unsafe-compare: no polymorphic compare/(=) on float distance values in lib/core, lib/metric, lib/packing, lib/nets, lib/search_tree, lib/tree_routing, lib/scale, lib/proto, lib/codec, lib/serve, lib/sim, lib/location, lib/baselines, bench and bin. See the implementation header for the full design. *)

val rule : Rule.t
