(* Driver for the typed (.cmt) lint tier: load the typed trees under the
   scanned paths and, in the same pass, the further trees a rule reads,
   build the call graph, run the interprocedural rules, then apply the
   same inline-suppression protocol as the syntactic
   tier — scoped to the rules this tier owns, so the two tiers never
   fight over whose suppressions are stale (Engine reports malformed
   comments and unknown rule names in an .ml, this tier in an .mli;
   each tier reports unused suppressions of its own rules only). *)

let all_rules =
  [ Zero_alloc.rule; Domain_escape.rule; Wire_exhaustive.rule; Dead_export.rule ]
let rule_ids = List.map (fun r -> r.Typed_rule.id) all_rules

type report = {
  diagnostics : Rule.diagnostic list;  (* sorted, suppressions applied *)
  units : int;  (* typed compilation units analyzed *)
}

let run ?(rules = all_rules) ?(known_rules = rule_ids) ~root paths =
  let units, extra =
    Cmt_index.load_split ~root paths
      ~extra:(List.concat_map (fun r -> r.Typed_rule.reads) rules)
  in
  let graph = Callgraph.build units in
  let interfaces = Cmt_index.load_interfaces ~root paths in
  let input = { Typed_rule.units; graph; interfaces; extra } in
  let raw = List.concat_map (fun r -> r.Typed_rule.check input) rules in
  let own_rules = List.map (fun r -> r.Typed_rule.id) rules in
  (* Suppressions are applied per source file — including files with no
     diagnostics, where a typed-rule suppression is by definition
     unused and must be reported before it rots. An .mli is read by no
     other tier, so its malformed and unknown-rule suppressions are
     reported here. *)
  let sources =
    List.concat_map
      (fun (u : Cmt_index.unit_info) ->
        let mli = Filename.remove_extension u.Cmt_index.source ^ ".mli" in
        if Sys.file_exists (Filename.concat root mli) then
          [ u.Cmt_index.source; mli ]
        else [ u.Cmt_index.source ])
      units
    |> List.sort_uniq String.compare
  in
  let diagnostics =
    List.concat_map
      (fun src ->
        let file_diags =
          List.filter (fun d -> String.equal d.Rule.file src) raw
        in
        match Source.read_file (Filename.concat root src) with
        | exception Sys_error _ -> file_diags
        | text ->
          let suppressions, malformed = Source.scan text in
          let report_malformed = Filename.check_suffix src ".mli" in
          Engine.apply_suppressions ~rel:src ~own_rules ~known_rules
            ~report_malformed suppressions malformed file_diags)
      sources
  in
  { diagnostics = List.sort Rule.compare_diag diagnostics;
    units = List.length units }
