(* dead-export fixture declarations; the comment on each val says what
   test_lint expects of it. *)

(* flagged: no unit uses it *)
val nowhere : int -> int

(* flagged, naming dx_test.ml: only the test side uses it *)
val test_only : int -> int

(* clean: the executable calls it *)
val by_exe : int -> int

(* clean: the executable calls it through a local module alias *)
val via_alias : int -> int

(* cr_lint: allow dead-export -- fixture: a reasoned suppression silences the finding *)
val suppressed : int -> int

(* cr_lint: allow dead-export -- fixture: the executable calls it, so this is stale *)
val stale : int -> int
