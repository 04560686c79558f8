(* cr_lint — the repo's compiler-libs static analyzer, in two tiers.

   Usage: cr_lint [--root DIR] [--typed] [--format human|json]
                  [--sarif FILE] [--list-rules] PATH...

   The syntactic tier parses every .ml under the given paths
   (workspace-relative to --root) and runs the per-file contract rules;
   with --typed, the typed tier additionally loads the .cmt trees dune
   left under the same paths, builds a call graph, and runs the
   interprocedural rules (zero-alloc, domain-escape, wire-exhaustive)
   and dead-export, which also reads the trees of examples/, perfbench/
   and test/ and reports at the .mli.
   Both tiers honour inline `(* cr_lint: allow <rule> -- <reason> *)`
   suppressions, each adjudicating staleness for its own rules only.
   Diagnostics merge into one (file, line, col, rule)-sorted stream;
   --sarif additionally writes the machine-readable report CI uploads.
   Exit code 0 when clean, 1 on any unsuppressed error, 2 on usage
   errors. Wired into the build as `dune build @lint`. *)

open Cr_lint_lib

let usage =
  "cr_lint [--root DIR] [--typed] [--format human|json] [--sarif FILE] \
   [--list-rules] PATH..."

let rule_registry typed =
  List.map (fun r -> (r.Rule.id, r.Rule.doc)) Engine.all_rules
  @
  if typed then
    List.map
      (fun r -> (r.Typed_rule.id, r.Typed_rule.doc))
      Typed_engine.all_rules
  else []

let () =
  let format = ref "human" in
  let root = ref "." in
  let list_rules = ref false in
  let typed = ref false in
  let sarif = ref "" in
  let paths = ref [] in
  let spec =
    [ ( "--root",
        Arg.Set_string root,
        "DIR workspace root the PATHs are relative to (default .)" );
      ( "--typed",
        Arg.Set typed,
        " also run the typed (.cmt) tier: zero-alloc, domain-escape, \
         wire-exhaustive, dead-export" );
      ( "--format",
        Arg.Symbol ([ "human"; "json" ], fun f -> format := f),
        " output format (default human)" );
      ( "--sarif",
        Arg.Set_string sarif,
        "FILE also write a SARIF 2.1.0 report to FILE" );
      ("--list-rules", Arg.Set list_rules, " print the rule set and exit") ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (id, doc) -> Printf.printf "%-20s %s\n" id doc)
      (rule_registry true);
    exit 0
  end;
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let result =
    try
      let syntactic =
        Engine.run ~extra_known_rules:Typed_engine.rule_ids ~root:!root paths
      in
      let typed_diags, units =
        if !typed then begin
          let r = Typed_engine.run ~root:!root paths in
          (r.Typed_engine.diagnostics, r.Typed_engine.units)
        end
        else ([], 0)
      in
      Ok (syntactic, typed_diags, units)
    with Sys_error msg -> Error msg
  in
  match result with
  | Error msg ->
    Printf.eprintf "cr_lint: %s\n" msg;
    exit 2
  | Ok ({ Engine.diagnostics; files }, typed_diags, units) ->
    let diagnostics =
      List.sort Rule.compare_diag (diagnostics @ typed_diags)
    in
    let ppf = Format.std_formatter in
    (match !format with
    | "json" -> Engine.render_json ppf diagnostics
    | _ -> Engine.render_human ppf diagnostics);
    Format.pp_print_flush ppf ();
    if !sarif <> "" then
      Sarif.write ~path:!sarif ~rules:(rule_registry !typed) diagnostics;
    let errors = Engine.error_count diagnostics in
    Printf.eprintf
      "cr_lint: %d file%s scanned%s, %d finding%s (%d error%s)\n" files
      (if files = 1 then "" else "s")
      (if !typed then Printf.sprintf ", %d typed unit%s" units
         (if units = 1 then "" else "s")
       else "")
      (List.length diagnostics)
      (if List.length diagnostics = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s");
    exit (if errors > 0 then 1 else 0)
