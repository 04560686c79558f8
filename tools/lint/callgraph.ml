(* A whole-program view over the loaded typed trees: every function
   binding (top-level, nested-module, and local) indexed so call sites
   can be resolved across module boundaries. This is what the
   interprocedural rules walk — the parsetree tier cannot see past a
   single file, which is exactly the gap the zero-alloc and
   domain-escape analyses need closed.

   Name resolution follows dune's wrapped-library mangling: a value
   reached as [Cr_core.Rings.next_hop] (through the generated wrapper
   alias) and as [Cr_core__Rings.next_hop] (directly) are the same
   definition; local [module M = Other.Mod] aliases (structure-level or
   [let module]) are substituted before mangling, and another unit's
   top-level alias reached through its path (or an [open]) is followed.
   Units are keyed by source path, since every executable's units share
   dune's [Dune__exe__] prefix. *)

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
  by_stamp : (string * string, def) Hashtbl.t;  (* (unit source, stamp) *)
  by_qual : (string, def) Hashtbl.t;  (* "Unit.path.to.value", top-level *)
  unit_names : (string, unit) Hashtbl.t;
  aliases : (string * string, string list) Hashtbl.t;
      (* (unit source, module ident stamp) -> substituted target parts *)
  top_aliases : (string * string, string * string list) Hashtbl.t;
      (* (unit modname, alias name) -> (unit source, target parts): the
         top-level aliases another unit reaches through the unit's path *)
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
    Hashtbl.replace t.by_stamp (unit_info.Cmt_index.source, Tast_util.stamp id) def;
    if toplevel then Hashtbl.replace t.by_qual qual def;
    acc := def :: !acc
  | _ -> ()

(* Substitute a leading local module alias: the path's head ident is the
   alias's own binding (same stamp), so shadowed and nested aliases of
   the same name never mix. *)
let substitute t (unit_info : Cmt_index.unit_info) path =
  let rec head = function
    | Path.Pident id -> Some id
    | Path.Pdot (p, _) | Path.Pextra_ty (p, _) -> head p
    | Path.Papply _ -> None
  in
  let parts = Tast_util.path_parts path in
  match head path with
  | None -> parts
  | Some id -> (
    match
      Hashtbl.find_opt t.aliases
        (unit_info.Cmt_index.source, Tast_util.stamp id)
    with
    | Some target -> target @ List.tl parts
    | None -> parts)

let register_alias t ~unit_info ~toplevel id target_parts =
  Hashtbl.replace t.aliases
    (unit_info.Cmt_index.source, Tast_util.stamp id)
    target_parts;
  if toplevel then
    Hashtbl.add t.top_aliases
      (unit_info.Cmt_index.modname, Ident.name id)
      (unit_info.Cmt_index.source, target_parts)

(* Walk one unit's structure, registering defs and module aliases. *)
let index_unit t acc unit_info =
  let rec walk_expr prefix e =
    let it =
      { Tast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.exp_desc with
            | Texp_letmodule (Some id, _, _, me, _) -> (
              match Tast_util.strip_constraint me with
              | Tmod_ident (path, _) ->
                register_alias t ~unit_info ~toplevel:false id
                  (substitute t unit_info path)
              | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
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
      match Tast_util.strip_constraint mb.mb_expr with
      | Tmod_ident (path, _) ->
        register_alias t ~unit_info ~toplevel:(prefix = []) id
          (substitute t unit_info path)
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
      aliases = Hashtbl.create 64;
      top_aliases = Hashtbl.create 64 }
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

(* The longest prefix of [parts] (leaving at least [keep] components)
   that names a loaded unit once joined with dune's "__", and the rest;
   a top-level alias of that unit (reached through [open] or the unit's
   path) is followed. Executables' units share the [Dune__exe] prefix,
   so an alias in the user's own directory wins. *)
let rec split_unit t ~keep ~dir ?(hops = 4) parts =
  let rec try_split k =
    if k = 0 then None
    else
      let unit_name = String.concat "__" (take k parts) in
      if Hashtbl.mem t.unit_names unit_name then
        Some (unit_name :: drop k parts)
      else try_split (k - 1)
  in
  match try_split (List.length parts - keep) with
  | Some (unit_name :: alias :: rest) as found when hops > 0 -> (
    let candidates = Hashtbl.find_all t.top_aliases (unit_name, alias) in
    let local =
      List.find_opt
        (fun (src, _) -> String.equal (Filename.dirname src) dir)
        candidates
    in
    match (local, candidates) with
    | Some (_, target), _ | None, (_, target) :: _ -> (
      match split_unit t ~keep ~dir ~hops:(hops - 1) (target @ rest) with
      | None -> found
      | resolved -> resolved)
    | None, [] -> found)
  | found -> found

(* [path] as seen from [unit_info]: its local aliases substituted, then
   split at the unit it names, if any. *)
let split t ~keep (unit_info : Cmt_index.unit_info) path =
  let parts = substitute t unit_info path in
  let dir = Filename.dirname unit_info.Cmt_index.source in
  (parts, split_unit t ~keep ~dir parts)

let resolve t (unit_info : Cmt_index.unit_info) path =
  match path with
  | Path.Pident id -> (
    match
      Hashtbl.find_opt t.by_stamp
        (unit_info.Cmt_index.source, Tast_util.stamp id)
    with
    | Some d -> Def d
    | None -> Local (Ident.name id))
  | _ -> (
    let parts, unit_parts = split t ~keep:1 unit_info path in
    match
      Option.bind unit_parts (fun q ->
          Hashtbl.find_opt t.by_qual (String.concat "." q))
    with
    | Some d -> Def d
    | None -> External parts)

let qualify_parts t ~keep unit_info path =
  let parts, unit_parts = split t ~keep unit_info path in
  String.concat "." (Option.value unit_parts ~default:parts)

(* Normalize a type or value path to "Unit.path.name" when it names
   something in a loaded unit, else a plain dotted string: the key the
   wire-exhaustiveness rule matches type declarations against use sites
   with, and dead-export matches [val]s against references with. *)
let qualify t (unit_info : Cmt_index.unit_info) path =
  match path with
  | Path.Pident id -> unit_info.Cmt_index.modname ^ "." ^ Ident.name id
  | _ -> qualify_parts t ~keep:1 unit_info path

let qualify_module t unit_info path = qualify_parts t ~keep:0 unit_info path
