(* The typed lint tier's rule framework: rules run over the whole loaded
   program (all units + call graph) at once, unlike the syntactic tier's
   per-file rules, because the properties they check — allocation
   freedom, mutable-state escape, wire coverage — are whole-program. *)

type input = {
  units : Cmt_index.unit_info list;  (* the linted paths' units *)
  graph : Callgraph.t;  (* over [units] *)
  interfaces : Cmt_index.intf_info list;  (* the linted paths' .cmtis *)
  extra : Cmt_index.unit_info list;
      (* the units under the rules' [reads] that [units] does not hold *)
}

type t = {
  id : string;  (* stable kebab-case id used in suppressions *)
  doc : string;  (* one-line description for --list-rules *)
  reads : string list;  (* trees beyond the linted paths, loaded into [extra] *)
  check : input -> Rule.diagnostic list;
}

(* Diagnostic at a Location.t inside [unit_info]'s source file. *)
let diag ~rule ?severity (unit_info : Cmt_index.unit_info) ~(loc : Location.t)
    msg =
  Rule.diag ~rule ?severity ~file:unit_info.Cmt_index.source ~loc msg
