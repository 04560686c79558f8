(** no-unsafe-compare: no polymorphic compare/(=) on float distance values in lib, bench and bin. See the implementation header for the full design. *)

val rule : Rule.t
