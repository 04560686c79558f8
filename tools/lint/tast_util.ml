(* Shared helpers over the typed AST (Typedtree): path flattening,
   attribute access, pattern variable collection, and the small type
   predicates the typed rules share. Everything here is structural — no
   Env lookups, so unmarshalled .cmt trees are safe to traverse. *)

open Typedtree

let rec path_parts = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply _ -> []
  | Path.Pextra_ty (p, _) -> path_parts p

let parts_string parts = String.concat "." parts

(* A stable per-binding key ("name/stamp"); Ident.t does not expose its
   stamp directly, but unique_name is injective over a compilation. *)
let stamp (id : Ident.t) = Ident.unique_name id

let ends_with ~suffix parts =
  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
  in
  let lp = List.length parts and ls = List.length suffix in
  ls > 0 && lp >= ls && drop (lp - ls) parts = suffix

(* {2 Attributes} *)

let attr_name (a : Parsetree.attribute) = a.Parsetree.attr_name.txt

let find_attr name attrs =
  List.find_opt (fun a -> String.equal (attr_name a) name) attrs

let has_attr name attrs = Option.is_some (find_attr name attrs)

(* The single-string payload of [\[@attr "reason"\]], if that is the
   attribute's exact shape. *)
let attr_string_payload (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [ { pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _ } ] ->
    Some s
  | _ -> None

(* {2 Patterns} *)

let rec strip_constraint me =
  match me.mod_desc with
  | Tmod_constraint (inner, _, _, _) -> strip_constraint inner
  | d -> d

let pattern_idents : type k. k general_pattern -> Ident.t list =
 fun pat ->
  let acc = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> acc := id :: !acc
          | Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat it p) }
  in
  it.pat it pat;
  !acc

(* {2 Expressions} *)

let iter_exprs_in e f =
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Tast_iterator.default_iterator.expr it e) }
  in
  it.expr it e

exception Found

let exists_expr pred e =
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then raise Found;
          Tast_iterator.default_iterator.expr it e) }
  in
  try
    it.expr it e;
    false
  with Found -> true

let callee_parts e =
  match e.exp_desc with Texp_ident (p, _, _) -> path_parts p | _ -> []

(* {2 Types} *)

let is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_arrow_type ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Walk a type expression structurally, calling [f] on every [Tconstr]
   with its path and arguments. Depth-bounded: abbreviations are left
   unexpanded (no Env), so only syntactic nesting is visited. *)
let iter_constrs ty f =
  let rec go depth ty =
    if depth < 24 then
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
        f p args;
        List.iter (go (depth + 1)) args
      | Types.Tarrow (_, a, b, _) ->
        go (depth + 1) a;
        go (depth + 1) b
      | Types.Ttuple ts -> List.iter (go (depth + 1)) ts
      | _ -> ()
  in
  go 0 ty
