(* dead-export: an exported value that no other unit uses. Warning 32
   already makes an unused unexported value a build error; this rule
   closes the gap for exported ones, so an export that loses its last
   caller fails the lint gate instead of living on in the .mli.

   The trees this rule reads go beyond the linted paths: a value that
   only an example or the perfbench harness calls is in use, and a value
   that only test/ calls is reported with the test files named, so its
   fate (delete, move into test/, keep with a reason) is a decision. *)

open Typedtree

type layout = {
  decls : string list;
  refs : string list;
  tests : string list;
}

let repo_layout =
  { decls = [ "lib" ];
    refs = [ "lib"; "bench"; "bin"; "examples"; "perfbench" ];
    tests = [ "test" ] }

(* Every [val] of the interface, into submodule signatures, keyed as
   Callgraph.qualify keys a use ("Cr_metric__Dijkstra.path"), with its
   location. *)
let decls_of (intf : Cmt_index.intf_info) =
  let rec items prefix acc sg =
    List.fold_left
      (fun acc item ->
        match item.sig_desc with
        | Tsig_value vd ->
          ( String.concat "." (List.rev (vd.val_name.txt :: prefix)),
            vd.val_loc )
          :: acc
        | Tsig_module md -> module_decl prefix acc md
        | Tsig_recmodule mds -> List.fold_left (module_decl prefix) acc mds
        | _ -> acc)
      acc sg.sig_items
  and module_decl prefix acc md =
    match (md.md_name.txt, md.md_type.mty_desc) with
    | Some name, Tmty_signature sg -> items (name :: prefix) acc sg
    | _ -> acc
  in
  List.rev (items [ intf.Cmt_index.i_modname ] [] intf.Cmt_index.signature)

(* Every non-local value path a unit mentions, qualified, with the
   unit's source: the reference table. *)
let collect_uses graph units =
  let uses = Hashtbl.create 4096 in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let it =
        { Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.exp_desc with
              | Texp_ident ((Path.Pdot _ as path), _, _) ->
                Hashtbl.add uses (Callgraph.qualify graph u path)
                  u.Cmt_index.source
              | _ -> ());
              Tast_iterator.default_iterator.expr it e) }
      in
      it.structure it u.Cmt_index.structure)
    units;
  uses

(* [include M] inside module [U] (or a submodule of it) re-exports M's
   values as U's: a use of U.v is then a use of M.v. Maps M to each U. *)
let collect_includers graph units =
  let includers = Hashtbl.create 16 in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let rec walk prefix items =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_include { incl_mod; _ } -> (
              match Tast_util.strip_constraint incl_mod with
              | Tmod_ident (path, _) ->
                Hashtbl.add includers
                  (Callgraph.qualify_module graph u path)
                  (String.concat "." (List.rev prefix))
              | _ -> ())
            | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
              match Tast_util.strip_constraint mb_expr with
              | Tmod_structure s -> walk (Ident.name id :: prefix) s.str_items
              | _ -> ())
            | _ -> ())
          items
      in
      walk [ u.Cmt_index.modname ] u.Cmt_index.structure.str_items)
    units;
  includers

(* Sources that use [key], directly or through an including module. *)
let rec users uses includers key =
  let modkey, value =
    let i = String.rindex key '.' in
    (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  in
  Hashtbl.find_all uses key
  @ List.concat_map
      (fun outer -> users uses includers (outer ^ "." ^ value))
      (Hashtbl.find_all includers modkey)

(* "Cr_metric__Dijkstra.path" -> "Cr_metric.Dijkstra.path" *)
let display key =
  let b = Buffer.create (String.length key) in
  let n = String.length key in
  let rec go i =
    if i < n then
      if i + 1 < n && key.[i] = '_' && key.[i + 1] = '_' then begin
        Buffer.add_char b '.';
        go (i + 2)
      end
      else begin
        Buffer.add_char b key.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let check layout (input : Typed_rule.input) =
  let linted =
    List.map (fun (u : Cmt_index.unit_info) -> u.Cmt_index.source) input.units
  in
  let interfaces =
    List.filter
      (fun (i : Cmt_index.intf_info) ->
        Rule.under layout.decls i.Cmt_index.i_source
        && List.mem (Filename.remove_extension i.Cmt_index.i_source ^ ".ml")
             linted)
      input.interfaces
  in
  if interfaces = [] then []
  else
    let units =
      List.sort
        (fun (a : Cmt_index.unit_info) b ->
          String.compare a.Cmt_index.source b.Cmt_index.source)
        (input.units @ input.extra)
    in
    let graph = Callgraph.build units in
    let uses = collect_uses graph units in
    let includers = collect_includers graph units in
    List.concat_map
      (fun (intf : Cmt_index.intf_info) ->
        let own = Filename.remove_extension intf.Cmt_index.i_source ^ ".ml" in
        List.filter_map
          (fun (key, loc) ->
            let srcs =
              users uses includers key
              |> List.filter (fun s -> not (String.equal s own))
              |> List.sort_uniq String.compare
            in
            let tests = List.filter (Rule.under layout.tests) srcs in
            if List.exists (Rule.under layout.refs) srcs then None
            else
              let name = display key in
              Some
                (Rule.diag ~rule:"dead-export" ~file:intf.Cmt_index.i_source
                   ~loc
                   (if tests = [] then
                      Printf.sprintf
                        "`%s` is exported but no other unit uses it: delete \
                         it, or drop it from the .mli if its own module \
                         calls it"
                        name
                    else
                      Printf.sprintf
                        "`%s` is used only by tests (%s): move it into the \
                         tests, delete it with them, or keep it with a \
                         reasoned suppression"
                        name (String.concat ", " tests))))
          (decls_of intf))
      interfaces

let rule_for layout =
  { Typed_rule.id = "dead-export";
    doc =
      "an .mli val no other unit uses (test-only uses are named, not \
       counted)";
    reads = layout.refs @ layout.tests;
    check = check layout }

let rule = rule_for repo_layout
