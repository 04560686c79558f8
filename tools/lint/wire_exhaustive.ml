(* wire-exhaustive: the CONGEST bit ledger cannot silently drift.

   Cr_proto.Network charges [measure msg] bits per delivery — and zero
   when a message falls outside the measure function's explicit
   branches. So: every variant type that instantiates ['msg
   Network.actions] (a "message type") must have Wire.measure coverage
   naming each of its constructors, with no catch-all cases, and a tag
   on the wire when there is more than one constructor to distinguish.

   Scoping is structural, not path-based: a type is a message type
   because it drives Network.actions somewhere in the loaded program, a
   function is a measurer because its parameter has that type and its
   body builds a Wire encoding. That keeps the rule honest on fixture
   trees (a local mini Wire/Network) as well as on lib/proto. *)

open Typedtree

let id = "wire-exhaustive"

let is_actions_path p =
  Tast_util.ends_with ~suffix:[ "Network"; "actions" ] (Tast_util.path_parts p)

let is_wire_call parts =
  match List.rev parts with
  | f :: "Wire" :: _ ->
    String.equal f "measure" || String.starts_with ~prefix:"push_" f
  | _ -> false

let is_push_tag parts =
  match List.rev parts with
  | "push_tag" :: "Wire" :: _ -> true
  | _ -> false

(* Does this expression push a tag — directly, or through a resolvable
   helper (measure functions commonly factor the shared header into a
   local [let header f = Wire.measure (fun w -> Wire.push_tag ...; f w)])?
   Depth-bounded walk through the call graph. *)
let pushes_tag graph (uinfo : Cmt_index.unit_info) expr =
  let visited = Hashtbl.create 8 in
  let rec go depth uinfo e =
    depth <= 4
    && Tast_util.exists_expr
         (fun e ->
           match e.exp_desc with
           | Texp_apply (fn, _) -> (
             is_push_tag (Tast_util.callee_parts fn)
             ||
             match fn.exp_desc with
             | Texp_ident (path, _, _) -> (
               match Callgraph.resolve graph uinfo path with
               | Callgraph.Def d ->
                 let key =
                   d.Callgraph.d_unit.Cmt_index.source ^ "#"
                   ^ Tast_util.stamp d.d_id
                 in
                 (not (Hashtbl.mem visited key))
                 && begin
                      Hashtbl.replace visited key ();
                      go (depth + 1) d.Callgraph.d_unit d.Callgraph.d_body
                    end
               | _ -> false)
             | _ -> false)
           | _ -> false)
         e
  in
  go 0 uinfo expr

(* The message-type key of [ty] if it is a named constructor type. *)
let key_of_type graph uinfo ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    let k = Callgraph.qualify graph uinfo p in
    if String.equal k "" then None else Some k
  | _ -> None

type decl_info = {
  dc_unit : Cmt_index.unit_info;
  dc_loc : Location.t;
  dc_name : string;
  dc_ctors : string list;
}

(* All variant declarations, keyed like Callgraph.qualify resolves use
   sites ("Unit.t", "Unit.M.t"). *)
let collect_decls units =
  let decls = Hashtbl.create 32 in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let rec walk_items prefix items =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_type (_, ds) ->
              List.iter
                (fun d ->
                  match d.typ_kind with
                  | Ttype_variant ctors ->
                    let key =
                      String.concat "."
                        ((u.Cmt_index.modname :: List.rev prefix)
                        @ [ d.typ_name.txt ])
                    in
                    Hashtbl.replace decls key
                      { dc_unit = u;
                        dc_loc = d.typ_loc;
                        dc_name = d.typ_name.txt;
                        dc_ctors =
                          List.map (fun c -> c.cd_name.txt) ctors }
                  | _ -> ())
                ds
            | Tstr_module { mb_id = Some mid; mb_expr; _ } -> (
              let rec strip me =
                match me.mod_desc with
                | Tmod_constraint (inner, _, _, _) -> strip inner
                | d -> d
              in
              match strip mb_expr with
              | Tmod_structure s ->
                walk_items (Ident.name mid :: prefix) s.str_items
              | _ -> ())
            | _ -> ())
          items
      in
      walk_items [] u.Cmt_index.structure.str_items)
    units;
  decls

(* Message types: every Tconstr argument of a Network.actions type, read
   off expression and pattern types. *)
let collect_usages graph units =
  let used = Hashtbl.create 16 in
  let note uinfo ty =
    Tast_util.iter_constrs ty (fun p args ->
        if is_actions_path p then
          List.iter
            (fun arg ->
              match key_of_type graph uinfo arg with
              | Some k -> if not (Hashtbl.mem used k) then Hashtbl.replace used k ()
              | None -> ())
            args)
  in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let it =
        { Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              note u e.exp_type;
              Tast_iterator.default_iterator.expr it e);
          pat =
            (fun (type k) it (p : k general_pattern) ->
              note u p.pat_type;
              Tast_iterator.default_iterator.pat it p) }
      in
      it.structure it u.Cmt_index.structure)
    units;
  used

type measurer = {
  m_unit : Cmt_index.unit_info;
  m_loc : Location.t;
  m_fn : expression;
}

(* A measurer for message type [key]: a function whose parameter has
   that type and whose body touches the Wire encoder. *)
let collect_measurers graph units key =
  let out = ref [] in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      let it =
        { Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.exp_desc with
              | Texp_function { cases = c :: _; _ }
                when (match key_of_type graph u c.c_lhs.pat_type with
                     | Some k -> String.equal k key
                     | None -> false)
                     && Tast_util.exists_expr
                          (fun e' ->
                            match e'.exp_desc with
                            | Texp_apply (fn, _) ->
                              is_wire_call (Tast_util.callee_parts fn)
                            | _ -> false)
                          e ->
                out := { m_unit = u; m_loc = e.exp_loc; m_fn = e } :: !out
              | _ -> ());
              Tast_iterator.default_iterator.expr it e) }
      in
      it.structure it u.Cmt_index.structure)
    units;
  List.rev !out

(* Constructors of [key] named by any pattern inside [m]. *)
let covered_ctors graph (m : measurer) key acc =
  let acc = ref acc in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_construct (_, cd, _, _)
            when (match key_of_type graph m.m_unit p.pat_type with
                 | Some k -> String.equal k key
                 | None -> false) ->
            if not (List.mem cd.Types.cstr_name !acc) then
              acc := cd.Types.cstr_name :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat it p) }
  in
  it.expr it m.m_fn;
  !acc

(* Catch-all cases over the message type inside a measurer: a wildcard
   or variable case in a match (or a multi-case function) silently
   prices every future constructor, which is exactly the drift this
   rule exists to stop. *)
let wildcard_diags graph (m : measurer) key =
  let diags = ref [] in
  let is_catch_all : type k. k general_pattern -> bool =
   fun p ->
    match p.pat_desc with
    | Tpat_any -> true
    | Tpat_var _ -> true
    | Tpat_value v -> (
      let v = (v :> value general_pattern) in
      match v.pat_desc with Tpat_any | Tpat_var _ -> true | _ -> false)
    | _ -> false
  in
  let flag loc =
    diags :=
      Typed_rule.diag ~rule:id m.m_unit ~loc
        (Printf.sprintf
           "catch-all pattern in Wire.measure coverage of `%s` hides \
            future constructors from the cost ledger; match each \
            constructor explicitly"
           key)
      :: !diags
  in
  let check_cases : type k. k case list -> unit =
   fun cases ->
    if List.length cases >= 2 then
      List.iter
        (fun c -> if is_catch_all c.c_lhs then flag c.c_lhs.pat_loc)
        cases
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_match (scrut, cases, _)
            when (match key_of_type graph m.m_unit scrut.exp_type with
                 | Some k -> String.equal k key
                 | None -> false) ->
            check_cases cases
          | Texp_function { cases = (c :: _ :: _) as cases; _ }
            when (match key_of_type graph m.m_unit c.c_lhs.pat_type with
                 | Some k -> String.equal k key
                 | None -> false) ->
            check_cases cases
          | _ -> ());
          Tast_iterator.default_iterator.expr it e) }
  in
  it.expr it m.m_fn;
  !diags

let check (input : Typed_rule.input) =
  let graph = input.Typed_rule.graph in
  let units = input.Typed_rule.units in
  let decls = collect_decls units in
  let used = collect_usages graph units in
  let keys =
    Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort String.compare
  in
  List.concat_map
    (fun key ->
      match Hashtbl.find_opt decls key with
      | None -> []  (* declared outside the loaded program: out of scope *)
      | Some dc -> (
        let measurers = collect_measurers graph units key in
        match measurers with
        | [] ->
          [ Typed_rule.diag ~rule:id dc.dc_unit ~loc:dc.dc_loc
              (Printf.sprintf
                 "message type `%s` drives Network.actions but has no \
                  Wire.measure coverage; its traffic is invisible to the \
                  CONGEST cost ledger"
                 key) ]
        | _ ->
          let covered =
            List.fold_left
              (fun acc m -> covered_ctors graph m key acc)
              [] measurers
          in
          let missing =
            List.filter (fun c -> not (List.mem c covered)) dc.dc_ctors
          in
          let missing_diags =
            List.map
              (fun c ->
                Typed_rule.diag ~rule:id dc.dc_unit ~loc:dc.dc_loc
                  (Printf.sprintf
                     "constructor `%s` of message type `%s` has no \
                      Wire.measure branch; its messages would be priced \
                      as zero bits"
                     c key))
              missing
          in
          let tag_diags =
            if
              List.length dc.dc_ctors >= 2
              && not
                   (List.exists
                      (fun m -> pushes_tag graph m.m_unit m.m_fn)
                      measurers)
            then
              let m = List.hd measurers in
              [ Typed_rule.diag ~rule:id m.m_unit ~loc:m.m_loc
                  (Printf.sprintf
                     "message type `%s` has %d constructors but its \
                      Wire.measure coverage never pushes a tag; encodings \
                      are not distinguishable on the wire"
                     key (List.length dc.dc_ctors)) ]
            else []
          in
          missing_diags
          @ tag_diags
          @ List.concat_map (fun m -> wildcard_diags graph m key) measurers))
    keys

let rule =
  { Typed_rule.id;
    doc =
      "every constructor of a Network.actions message type needs an \
       explicit Wire.measure branch";
    reads = [];
    check }
