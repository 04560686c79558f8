(* A whole-program view over the loaded typed trees: every function
   binding (top-level, nested-module, and local) indexed so call sites
   can be resolved across module boundaries. This is what the
   interprocedural rules walk — the parsetree tier cannot see past a
   single file, which is exactly the gap the zero-alloc and
   domain-escape analyses need closed.

   Name resolution follows dune's wrapped-library mangling: a value
   reached as [Cr_core.Rings.next_hop] (through the generated wrapper
   alias) and as [Cr_core__Rings.next_hop] (directly) are the same
   definition; local [module M = Other.Mod] aliases are substituted
   before mangling. *)

open Typedtree

type def = {
  d_unit : Cmt_index.unit_info;
  d_qual : string;  (* e.g. "Cr_par__Pool.parallel_init.run_chunks" *)
  d_name : string;  (* last component, for display *)
  d_id : Ident.t;
  d_attrs : Parsetree.attributes;
  d_body : expression;
  d_loc : Location.t;
  d_toplevel : bool;
}

type t = {
  units : Cmt_index.unit_info list;
  defs : def list;  (* deterministic: unit order, then source order *)
  by_stamp : (string * string, def) Hashtbl.t;  (* (unit modname, stamp) *)
  by_qual : (string, def) Hashtbl.t;  (* "Unit.path.to.value", top-level *)
  unit_names : (string, unit) Hashtbl.t;
  aliases : (string * string, string list) Hashtbl.t;
      (* (unit modname, module ident stamp) -> substituted target parts *)
}

type callee =
  | Def of def
  | External of string list  (* fully-substituted dotted path *)
  | Local of string  (* parameter / unresolved local value: a boundary *)

let is_function_expr e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let has_cr_attr attrs =
  List.exists
    (fun a ->
      let n = Tast_util.attr_name a in
      String.length n > 3 && String.sub n 0 3 = "cr.")
    attrs

let register t acc ~unit_info ~prefix ~toplevel vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _)
    when is_function_expr vb.vb_expr || has_cr_attr vb.vb_attributes ->
    let name = Ident.name id in
    let qual =
      String.concat "." (unit_info.Cmt_index.modname :: List.rev (name :: prefix))
    in
    let def =
      { d_unit = unit_info;
        d_qual = qual;
        d_name = name;
        d_id = id;
        d_attrs = vb.vb_attributes;
        d_body = vb.vb_expr;
        d_loc = vb.vb_loc;
        d_toplevel = toplevel }
    in
    Hashtbl.replace t.by_stamp (unit_info.Cmt_index.modname, Tast_util.stamp id) def;
    if toplevel then Hashtbl.replace t.by_qual qual def;
    acc := def :: !acc
  | _ -> ()

(* Substitute a leading local module alias, if the path starts with one. *)
let substitute t modname parts =
  match parts with
  | head :: rest -> (
    (* find the alias by name: stamps for module idents are recorded at
       registration; resolve by scanning this unit's aliases *)
    let found = ref None in
    Hashtbl.iter
      (fun (m, _) target ->
        match !found with
        | Some _ -> ()
        | None ->
          if String.equal m modname then
            match target with
            | alias_name :: _ when String.equal alias_name ("alias:" ^ head) ->
              found := Some (List.tl target)
            | _ -> ())
      t.aliases;
    match !found with Some target -> target @ rest | None -> parts)
  | [] -> parts

let register_alias t ~unit_info id target_parts =
  (* store the alias under a name-tagged head so [substitute] can match
     by source name without threading ident stamps through Path.t *)
  Hashtbl.replace t.aliases
    (unit_info.Cmt_index.modname, Tast_util.stamp id)
    (("alias:" ^ Ident.name id) :: target_parts)

(* Walk one unit's structure, registering defs and module aliases. *)
let index_unit t acc unit_info =
  let rec walk_expr prefix e =
    let it =
      { Tast_iterator.default_iterator with
        value_binding =
          (fun it vb ->
            (match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              register t acc ~unit_info ~prefix:!prefix ~toplevel:false vb;
              prefix := Ident.name id :: !prefix;
              Tast_iterator.default_iterator.value_binding it vb;
              prefix := List.tl !prefix
            | _ -> Tast_iterator.default_iterator.value_binding it vb);
            ()) }
    in
    it.expr it e
  and walk_items prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              register t acc ~unit_info ~prefix ~toplevel:true vb;
              let name =
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> Some (Ident.name id)
                | _ -> None
              in
              let p =
                ref (match name with Some n -> n :: prefix | None -> prefix)
              in
              walk_expr p vb.vb_expr)
            vbs
        | Tstr_module mb -> walk_module prefix mb
        | Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | _ -> ())
      items
  and walk_module prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let rec strip me =
        match me.mod_desc with
        | Tmod_constraint (inner, _, _, _) -> strip inner
        | d -> d
      in
      match strip mb.mb_expr with
      | Tmod_ident (path, _) ->
        let parts =
          substitute t unit_info.Cmt_index.modname (Tast_util.path_parts path)
        in
        register_alias t ~unit_info id parts
      | Tmod_structure s ->
        walk_items (Ident.name id :: prefix) s.str_items
      | _ -> ())
  in
  walk_items [] unit_info.Cmt_index.structure.str_items

let build units =
  let t =
    { units;
      defs = [];
      by_stamp = Hashtbl.create 256;
      by_qual = Hashtbl.create 256;
      unit_names = Hashtbl.create 64;
      aliases = Hashtbl.create 64 }
  in
  List.iter
    (fun u -> Hashtbl.replace t.unit_names u.Cmt_index.modname ())
    units;
  let acc = ref [] in
  List.iter (fun u -> index_unit t acc u) units;
  { t with defs = List.rev !acc }

(* {2 Resolution} *)

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

(* Try to interpret [parts] (module path + value name) as a definition in
   one of the loaded units, honouring dune's [Lib.Module] ->
   [Lib__Module] mangling at any split point. *)
let lookup_parts t parts =
  match List.rev parts with
  | [] -> None
  | value :: rev_modpath ->
    let modpath = List.rev rev_modpath in
    let n = List.length modpath in
    let rec try_split k =
      if k = 0 then None
      else
        let unit_name = String.concat "__" (take k modpath) in
        if Hashtbl.mem t.unit_names unit_name then
          let qual =
            String.concat "." ((unit_name :: drop k modpath) @ [ value ])
          in
          match Hashtbl.find_opt t.by_qual qual with
          | Some d -> Some d
          | None -> try_split (k - 1)
        else try_split (k - 1)
    in
    try_split n

let resolve t (unit_info : Cmt_index.unit_info) path =
  let modname = unit_info.Cmt_index.modname in
  match path with
  | Path.Pident id -> (
    match Hashtbl.find_opt t.by_stamp (modname, Tast_util.stamp id) with
    | Some d -> Def d
    | None -> Local (Ident.name id))
  | _ -> (
    let parts = substitute t modname (Tast_util.path_parts path) in
    match lookup_parts t parts with
    | Some d -> Def d
    | None -> External parts)

(* Normalize a type path to "Unit.type" when it names a type declared in
   a loaded unit, else a plain dotted string. Shares the value mangling
   rules: used by the wire-exhaustiveness rule to match declarations
   against use sites. *)
let type_key t (unit_info : Cmt_index.unit_info) path =
  let modname = unit_info.Cmt_index.modname in
  match path with
  | Path.Pident id -> modname ^ "." ^ Ident.name id
  | _ -> (
    let parts = substitute t modname (Tast_util.path_parts path) in
    match List.rev parts with
    | [] -> ""
    | value :: rev_modpath ->
      let modpath = List.rev rev_modpath in
      let n = List.length modpath in
      let rec try_split k =
        if k = 0 then String.concat "." parts
        else
          let unit_name = String.concat "__" (take k modpath) in
          if Hashtbl.mem t.unit_names unit_name then
            String.concat "." ((unit_name :: drop k modpath) @ [ value ])
          else try_split (k - 1)
      in
      try_split n)
