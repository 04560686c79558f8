(* no-unsafe-compare: distance values are floats, and the schemes'
   tie-break ordering contracts (Dijkstra's least-id relaxation, the
   packing greedy's (radius, id) scan, nearest_k) silently break if a NaN
   or a differently-represented equal value sneaks through polymorphic
   structural comparison. Every library under lib/ either carries such a
   contract or feeds one: lib/core, lib/metric and the structures built
   on their orders (packing, nets, search_tree, tree_routing, scale),
   the simulator's delivery order and E19's measured bits (proto,
   codec), served costs that must equal walked costs bit for bit (serve,
   sim), distance rankings (location, baselines), the generated graphs
   every experiment runs on (graphgen), fault plans, the lower-bound
   construction, the invariant checkers, telemetry and the pool. In
   bench/ and bin/ the experiments and the CLI pick sample pairs and
   print tables by distance order, and their output is baselined. Over
   all of lib/, bench/ and bin/ this rule forbids

   - the bare polymorphic [compare] in any position (sorts included):
     spell out [Float.compare] / [Int.compare] / a keyed comparator;
   - [=] / [<>] / [==] / [!=] where an operand is syntactically
     float-valued: use [Float.equal] or an explicit [Float.compare].

   "Syntactically float-valued" means: float literals, float arithmetic,
   [Float.*] producers, the float built-ins ([infinity], [nan], ...),
   applications of the distance accessors ([d], [dist], [distance]),
   projections of known distance fields ([dist], [cost], [radius], ...)
   including through [Array.get], and local lets bound (transitively) to
   any of these. Primitive float ordering ([<], [<=]) is fine and not
   flagged. *)

open Parsetree
module A = Ast_util

let id = "no-unsafe-compare"

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let float_builtins =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

let float_returning_stdlib = [ "float_of_int"; "abs_float"; "float_of_string" ]

(* Float.* functions that return a float (not compare/equal/to_int/...). *)
let float_module_producers =
  [ "min"; "max"; "abs"; "add"; "sub"; "mul"; "div"; "neg"; "rem"; "sqrt";
    "pow"; "fma"; "of_int"; "of_string"; "round"; "floor"; "ceil"; "succ";
    "pred" ]

let distance_fns = [ "d"; "dist"; "distance" ]

let distance_fields =
  [ "dist"; "cost"; "radius"; "weight"; "traveled"; "min_distance";
    "diameter"; "prio" ]

let last path = match List.rev path with x :: _ -> Some x | [] -> None

let is_float_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

let rec floatish locals e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Longident.Lident x; _ } ->
    List.mem x float_builtins || Hashtbl.mem locals x
  | Pexp_field (_, { txt; _ }) -> (
    match last (A.flatten txt) with
    | Some f -> List.mem f distance_fields
    | None -> false)
  | Pexp_apply (f, args) -> (
    let path = A.path_of f in
    (match path with [ op ] when List.mem op float_ops -> true | _ -> false)
    ||
    (match List.rev path with
    | fn :: rest ->
      List.mem fn distance_fns
      || List.mem fn float_returning_stdlib
      || (List.mem "Float" rest && List.mem fn float_module_producers)
      || ((fn = "get" || fn = "unsafe_get")
         && List.mem "Array" rest
         &&
         match args with
         | (_, first) :: _ -> floatish locals first
         | [] -> false)
    | [] -> false))
  | Pexp_constraint (e', t) -> is_float_type t || floatish locals e'
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> floatish locals body
  | Pexp_ifthenelse (_, e_then, e_else) ->
    floatish locals e_then
    || (match e_else with Some e' -> floatish locals e' | None -> false)
  | _ -> false

(* Names let-bound to float-ish expressions, to a syntactic fixpoint so
   chains like [let da = d m u a in let x = da in ...] propagate. *)
let collect_float_locals structure =
  let locals = Hashtbl.create 32 in
  let changed = ref true in
  while !changed do
    changed := false;
    let it =
      { Ast_iterator.default_iterator with
        value_binding =
          (fun it vb ->
            (match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ }
              when (not (Hashtbl.mem locals txt))
                   && floatish locals vb.pvb_expr ->
              Hashtbl.add locals txt ();
              changed := true
            | _ -> ());
            Ast_iterator.default_iterator.value_binding it vb) }
    in
    it.structure it structure
  done;
  locals

let equality_ops = [ "="; "<>"; "=="; "!=" ]

let check (input : Rule.input) =
  let locals = collect_float_locals input.Rule.structure in
  let diags = ref [] in
  let report loc message =
    diags := Rule.diag ~rule:id ~file:input.Rule.rel ~loc message :: !diags
  in
  A.iter_exprs input.Rule.structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident "compare"; _ } ->
        report e.pexp_loc
          "polymorphic compare in distance-ordering code; use Float.compare \
           / Int.compare or a keyed comparator so NaN and representation \
           differences cannot scramble tie-breaks"
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
            [ (_, a); (_, b) ] )
        when List.mem op equality_ops
             && (floatish locals a || floatish locals b) ->
        report e.pexp_loc
          (Printf.sprintf
             "polymorphic `%s` on a float-valued operand; use Float.equal \
              (or compare against Float.compare ... = 0) so NaN cannot \
              silently break the ordering contract"
             op)
      | _ -> ());
  !diags

let rule =
  { Rule.id;
    doc =
      "no polymorphic compare/(=) on float distance values in lib, bench \
       and bin";
    applies = (fun rel -> Rule.under [ "lib"; "bench"; "bin" ] rel);
    check }
