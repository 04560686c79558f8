(** Driver for the typed (.cmt) lint tier: loads typed trees, builds the
    call graph, runs the interprocedural rules, and applies the inline
    suppression protocol scoped to this tier's rules. *)

val all_rules : Typed_rule.t list
val rule_ids : string list

type report = {
  diagnostics : Rule.diagnostic list;  (** sorted, suppressions applied *)
  units : int;  (** typed compilation units analyzed *)
}

val run :
  ?rules:Typed_rule.t list ->
  ?known_rules:string list ->
  root:string ->
  string list ->
  report
(** [run ~root paths] analyzes every unit whose .cmt lies under one of
    the workspace-relative [paths]; the trees the rules' [reads] name
    beyond them are loaded in the same pass and passed as [extra].
    [known_rules] widens the set of rule names suppression comments may
    mention without being flagged as unknown (the syntactic tier reports
    those). *)
