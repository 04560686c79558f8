(** dead-export: a [val] in a library [.mli] that no other unit uses.

    Declarations are read from the [.cmti] trees (submodule signatures
    included); references are the value paths in the [.cmt] trees of the
    layout's [refs] and [tests] directories, resolved through dune's
    wrapped names, local module aliases and [include]. A use in the
    declaring module's own [.ml] is not a reference, and a use under
    [tests] is reported (with its files) but keeps nothing alive. *)

type layout = {
  decls : string list;  (** trees whose [.mli] [val]s are checked *)
  refs : string list;  (** trees whose uses keep a [val] exported *)
  tests : string list;  (** trees whose uses are named, not counted *)
}

val rule_for : layout -> Typed_rule.t
(** The rule over [layout]. It checks only the interfaces whose [.ml] is
    among the linted units; its [reads] are the [refs] and [tests] trees,
    which the engine loads together with the linted paths. *)

val rule : Typed_rule.t
(** The repository's layout: [lib] declares; [lib], [bench], [bin],
    [examples] and [perfbench] refer; [test] is the test side. *)
