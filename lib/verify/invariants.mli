(** Executable checks for the paper's structural invariants.

    Each check examines a built structure against the property the paper
    proves about it and returns a list of findings (empty = invariant
    holds). The test suite runs them on every fixture, and
    `crdemo verify --family ...` runs them on demand — so a user adopting
    the library on their own topology can certify the structures before
    trusting the routing guarantees. *)

type finding = {
  check : string;  (** which invariant *)
  detail : string;  (** what failed, with the offending values *)
}

(** [hierarchy m h] checks Section 2's net properties: nesting, packing
    distance >= 2^i, covering distance <= 2^i per level, singleton top,
    full bottom. *)
(* cr_lint: allow dead-export -- test hook: test_verify feeds it a mismatched structure *)
val hierarchy :
  Cr_metric.Metric.t -> Cr_nets.Hierarchy.t -> finding list

(** [netting_tree m nt] checks the label bijection, that each leaf's
    stored ancestor row and its parent pointers up to the root are its
    zooming sequence recomputed from [m], and the central range property:
    l(u) in Range(x, i) iff x = u(i). *)
(* cr_lint: allow dead-export -- test hook: test_verify feeds it a mismatched structure *)
val netting_tree :
  Cr_metric.Metric.t -> Cr_nets.Netting_tree.t -> finding list

(** [search_tree m st ~radius] checks Eqn (3)'s height bound (with the
    Definition 4.2 chain allowance) and that every stored key is
    retrievable. *)
(* cr_lint: allow dead-export -- test hook: test_verify feeds it a mismatched structure *)
val search_tree :
  Cr_metric.Metric.t -> Cr_search.Search_tree.t -> radius:float ->
  finding list

(** [all m] builds the standard structures for [m] and runs every check. *)
val all : Cr_metric.Metric.t -> finding list

(** [pp] prints a finding as "check: detail". *)
val pp : Format.formatter -> finding -> unit
