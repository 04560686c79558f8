(* zero-alloc: an interprocedural allocation-freedom proof.

   Functions marked [@cr.zero_alloc] are roots; the rule walks their
   bodies and every call-graph-reachable definition, reporting each
   allocating construct — closure, tuple/record/constructor/array
   construction, lazy blocks, partial application, boxed-float reads —
   with the call chain that reaches it. Calls that cannot be resolved
   (through parameters, computed functions, or externals outside a small
   allowlist of allocation-free primitives) are boundaries and are
   reported too: the proof is only as good as what it can see, so
   anything unseen is assumed to allocate.

   The escape hatch is [@cr.alloc_ok "reason"] on an expression: its
   subtree is exempt (e.g. the probe fallback in Engine.next_hop, or a
   cold path behind a cheap guard). An exemption that guards nothing is
   reported as stale, mirroring how Source.scan treats unused inline
   suppressions, so fixed violations cannot leave dead annotations. *)

open Typedtree

let id = "zero-alloc"
let root_attr = "cr.zero_alloc"
let ok_attr = "cr.alloc_ok"

(* {2 External classification} *)

type cls =
  | Safe
  | Boxes of string  (* allocates a float box: report with this label *)
  | Denied

let safe_plain =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max";
    "+"; "-"; "*"; "/"; "mod"; "abs"; "succ"; "pred"; "land"; "lor"; "lxor";
    "lnot"; "lsl"; "lsr"; "asr"; "not"; "&&"; "||"; "&"; "or"; "~-"; "~+";
    "ignore"; "fst"; "snd"; "!"; ":="; "incr"; "decr"; "int_of_float";
    "raise"; "raise_notrace"; "int_of_char"; "char_of_int" ]

let boxing_plain =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+."; "float_of_int"; "sqrt";
    "abs_float"; "mod_float" ]

let safe_qualified =
  [ [ "Array"; "get" ]; [ "Array"; "unsafe_get" ]; [ "Array"; "set" ];
    [ "Array"; "unsafe_set" ]; [ "Array"; "length" ];
    [ "Bytes"; "get" ]; [ "Bytes"; "unsafe_get" ]; [ "Bytes"; "set" ];
    [ "Bytes"; "unsafe_set" ]; [ "Bytes"; "length" ];
    [ "String"; "length" ]; [ "String"; "get" ]; [ "String"; "unsafe_get" ];
    [ "Int"; "compare" ]; [ "Int"; "equal" ]; [ "Int"; "max" ];
    [ "Int"; "min" ]; [ "Int"; "abs" ];
    [ "Char"; "code" ]; [ "Char"; "chr" ];
    [ "Float"; "compare" ]; [ "Float"; "equal" ]; [ "Float"; "min" ];
    [ "Float"; "max" ];
    [ "Atomic"; "get" ]; [ "Atomic"; "set" ]; [ "Atomic"; "exchange" ];
    [ "Atomic"; "compare_and_set" ]; [ "Atomic"; "fetch_and_add" ];
    [ "Atomic"; "incr" ]; [ "Atomic"; "decr" ];
    [ "Hashtbl"; "find" ]; [ "Hashtbl"; "mem" ]; [ "Hashtbl"; "length" ] ]

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let classify_external parts =
  let parts = strip_stdlib parts in
  match parts with
  | [ x ] when List.mem x safe_plain -> Safe
  | [ x ] when List.mem x boxing_plain ->
    Boxes (Printf.sprintf "`%s` boxes its float result" x)
  | _ when List.exists (fun s -> Tast_util.ends_with ~suffix:s parts)
             safe_qualified ->
    Safe
  | _ -> Denied

(* [a.(i)] on a float array boxes the element it reads. *)
let float_array_read parts args =
  (Tast_util.ends_with ~suffix:[ "Array"; "get" ] parts
  || Tast_util.ends_with ~suffix:[ "Array"; "unsafe_get" ] parts)
  &&
  match args with
  | (_, Some a) :: _ -> (
    match Types.get_desc a.exp_type with
    | Types.Tconstr (p, [ el ], _) ->
      Path.same p Predef.path_array && Tast_util.is_float_type el
    | _ -> false)
  | _ -> false

(* {2 The traversal} *)

type mode =
  | Report of { root : Callgraph.def; diags : Rule.diagnostic list ref }
  | Count of int ref

let visit_key (d : Callgraph.def) =
  d.Callgraph.d_unit.Cmt_index.source ^ "#" ^ Tast_util.stamp d.d_id

let chain_string chain =
  String.concat " -> "
    (List.rev_map (fun d -> d.Callgraph.d_name) chain)

let found ~mode ~chain (uinfo : Cmt_index.unit_info) loc what =
  match mode with
  | Count n -> incr n
  | Report { root; diags } ->
    let via =
      match chain with
      | [] | [ _ ] -> ""
      | _ -> Printf.sprintf " (call chain: %s)" (chain_string chain)
    in
    diags :=
      Typed_rule.diag ~rule:id uinfo ~loc
        (Printf.sprintf "%s on [@%s] path from %s%s" what root_attr
           root.Callgraph.d_qual via)
      :: !diags

(* Curried single-case [fun]s are the definition's own parameters (the
   compiler flattens them into one arity-N function: no per-call
   allocation). Multi-case or guarded levels stop the flattening — a
   function nested under those is built per call. *)
let rec bodies_of e =
  if Tast_util.has_attr ok_attr e.exp_attributes then [ e ]
  else
    match e.exp_desc with
    | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      bodies_of c_rhs
    | Texp_function { cases; _ } ->
      List.concat_map
        (fun c ->
          (match c.c_guard with Some g -> [ g ] | None -> []) @ [ c.c_rhs ])
        cases
    | _ -> [ e ]

let iter_child_exprs e f =
  let it = { Tast_iterator.default_iterator with expr = (fun _ e -> f e) } in
  Tast_iterator.default_iterator.expr it e

let rec walk graph ~mode ~visited ~chain uinfo e =
  match Tast_util.find_attr ok_attr e.exp_attributes with
  | Some a -> (
    match mode with
    | Count _ -> ()  (* exempt in sub-analyses too *)
    | Report { diags; _ } -> (
      (match Tast_util.attr_string_payload a with
      | Some _ -> ()
      | None ->
        diags :=
          Typed_rule.diag ~rule:id uinfo ~loc:e.exp_loc
            (Printf.sprintf "[@%s] requires a reason string" ok_attr)
          :: !diags);
      (* staleness: would the guarded subtree report anything? *)
      let n = ref 0 in
      let bare = { e with exp_attributes = [] } in
      walk graph ~mode:(Count n) ~visited:(Hashtbl.create 8) ~chain uinfo bare;
      if !n = 0 then
        diags :=
          Typed_rule.diag ~rule:id ~severity:Rule.Warning uinfo ~loc:e.exp_loc
            (Printf.sprintf
               "[@%s] guards no allocation; delete the stale annotation"
               ok_attr)
          :: !diags))
  | None -> (
    let here what = found ~mode ~chain uinfo e.exp_loc what in
    match e.exp_desc with
    | Texp_function _ -> here "closure construction"
    | Texp_tuple _ ->
      here "tuple construction";
      iter_child_exprs e (walk graph ~mode ~visited ~chain uinfo)
    | Texp_record _ ->
      here "record construction";
      iter_child_exprs e (walk graph ~mode ~visited ~chain uinfo)
    | Texp_construct (_, cd, args) ->
      (match cd.Types.cstr_tag with
      | Types.Cstr_block _ ->
        here (Printf.sprintf "constructor `%s` allocation" cd.Types.cstr_name)
      | Types.Cstr_extension _ when args <> [] ->
        here (Printf.sprintf "constructor `%s` allocation" cd.Types.cstr_name)
      | _ -> ());
      List.iter (walk graph ~mode ~visited ~chain uinfo) args
    | Texp_variant (_, Some arg) ->
      here "polymorphic variant allocation";
      walk graph ~mode ~visited ~chain uinfo arg
    | Texp_array (_ :: _ as els) ->
      here "array construction";
      List.iter (walk graph ~mode ~visited ~chain uinfo) els
    | Texp_lazy _ ->
      here "lazy block construction"
    | Texp_field (r, _, lbl) ->
      (match lbl.Types.lbl_repres with
      | Types.Record_float -> here "float record field read boxes its result"
      | _ -> ());
      walk graph ~mode ~visited ~chain uinfo r
    | Texp_letop _ -> here "binding operator (allocates closures)"
    | Texp_send _ -> here "method call (cannot be verified)"
    | Texp_new _ | Texp_object _ -> here "object construction"
    | Texp_pack _ -> here "first-class module packing"
    | Texp_apply (fn, args) ->
      if List.exists (fun (_, a) -> a = None) args then
        here "partial application (allocates a closure)"
      else if Tast_util.is_arrow_type e.exp_type then
        here "application returning a function (allocates a closure)";
      (match fn.exp_desc with
      | Texp_ident (path, _, _) -> (
        match Callgraph.resolve graph uinfo path with
        | Callgraph.Def d ->
          let key = visit_key d in
          if not (Hashtbl.mem visited key) then begin
            Hashtbl.replace visited key ();
            List.iter
              (walk graph ~mode ~visited ~chain:(d :: chain)
                 d.Callgraph.d_unit)
              (bodies_of d.Callgraph.d_body)
          end
        | Callgraph.Local name ->
          here
            (Printf.sprintf
               "call through local value `%s` cannot be verified" name)
        | Callgraph.External parts ->
          if float_array_read parts args then
            here "float array read boxes its result"
          else (
            match classify_external parts with
            | Safe -> ()
            | Boxes label -> here label
            | Denied ->
              here
                (Printf.sprintf
                   "call to external `%s` is not proven allocation-free"
                   (Tast_util.parts_string (strip_stdlib parts)))))
      | _ ->
        here "indirect call through a computed function";
        walk graph ~mode ~visited ~chain uinfo fn);
      List.iter
        (fun (_, a) ->
          Option.iter (walk graph ~mode ~visited ~chain uinfo) a)
        args
    | _ -> iter_child_exprs e (walk graph ~mode ~visited ~chain uinfo))

let check (input : Typed_rule.input) =
  let diags = ref [] in
  List.iter
    (fun (d : Callgraph.def) ->
      if Tast_util.has_attr root_attr d.d_attrs then begin
        let visited = Hashtbl.create 32 in
        Hashtbl.replace visited (visit_key d) ();
        List.iter
          (walk input.Typed_rule.graph
             ~mode:(Report { root = d; diags })
             ~visited ~chain:[ d ] d.d_unit)
          (bodies_of d.d_body)
      end)
    input.Typed_rule.graph.Callgraph.defs;
  !diags

let rule =
  { Typed_rule.id;
    doc =
      "[@cr.zero_alloc] functions must be allocation-free through their \
       whole call graph";
    reads = [];
    check }
