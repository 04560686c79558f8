(** Deterministic views of [Hashtbl] contents.

    [Hashtbl]'s bucket order depends on the hash seed and insertion
    history, so a plain [Hashtbl.fold]/[iter] leaks nondeterminism into
    anything order-sensitive built from it — the exact failure mode the
    [cr_lint] determinism rule forbids in the pooled build paths and the
    protocol layer. This module is the blessed replacement: every
    traversal first sorts the keys with an explicit comparator, so results
    are a function of the table's {e contents} only.

    Tables traversed here must follow the [Hashtbl.replace] discipline (at
    most one binding per key); with [Hashtbl.add]-stacked duplicates the
    relative order of equal keys would again be bucket-dependent. *)

(** [fold_sorted ~cmp f tbl init] folds over bindings in ascending key
    order (so e.g. a keep-first minimum extraction tie-breaks toward the
    least key). *)
val fold_sorted :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'a -> 'a) ->
  ('k, 'v) Hashtbl.t ->
  'a ->
  'a
