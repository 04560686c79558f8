(* domain-escape: the interprocedural upgrade of pool-purity.

   The syntactic rule only sees literal mutations inside the closure
   handed to Cr_par.Pool; mutable state that escapes through an alias
   ([let o = out in o.(i) <- ...]) or a callee ([fill out i] where
   [fill] does the write) is invisible to it. This rule tracks both:

   - every mutation site inside a pool task is resolved through a local
     alias map to its root identifier; a root bound outside the task is
     shared state and must be accessed through [Atomic.*] (never flagged
     — the mutator table doesn't contain them) or under [Mutex.protect];
   - per-definition summaries record which parameters a function
     (transitively) mutates, so passing a captured value to a callee
     that writes it is reported at the call site with the callee named.

   Summaries are optimistic about calls they cannot resolve (externals
   off the mutator table, calls through parameters): the pool contract
   already forbids the exotic cases, and a pessimistic default would
   drown the signal in false positives on closure-heavy code. *)

open Typedtree

let id = "domain-escape"

let pool_fns = [ "parallel_init"; "parallel_map"; "parallel_map_list" ]

(* (path suffix, index of the mutated argument among Nolabel args) *)
let external_mutators =
  [ ([ ":=" ], 0, "reference assignment"); ([ "incr" ], 0, "reference increment");
    ([ "decr" ], 0, "reference decrement");
    ([ "Array"; "set" ], 0, "array write");
    ([ "Array"; "unsafe_set" ], 0, "array write");
    ([ "Array"; "fill" ], 0, "array fill");
    ([ "Array"; "blit" ], 2, "array blit");
    ([ "Bytes"; "set" ], 0, "bytes write");
    ([ "Bytes"; "unsafe_set" ], 0, "bytes write");
    ([ "Bytes"; "fill" ], 0, "bytes fill");
    ([ "Bytes"; "blit" ], 2, "bytes blit");
    ([ "Bytes"; "blit_string" ], 2, "bytes blit");
    ([ "Hashtbl"; "add" ], 0, "Hashtbl mutation");
    ([ "Hashtbl"; "replace" ], 0, "Hashtbl mutation");
    ([ "Hashtbl"; "remove" ], 0, "Hashtbl mutation");
    ([ "Hashtbl"; "reset" ], 0, "Hashtbl mutation");
    ([ "Hashtbl"; "clear" ], 0, "Hashtbl mutation");
    ([ "Hashtbl"; "filter_map_inplace" ], 1, "Hashtbl mutation");
    ([ "Buffer"; "add_string" ], 0, "Buffer mutation");
    ([ "Buffer"; "add_char" ], 0, "Buffer mutation");
    ([ "Buffer"; "add_bytes" ], 0, "Buffer mutation");
    ([ "Buffer"; "add_buffer" ], 0, "Buffer mutation");
    ([ "Buffer"; "clear" ], 0, "Buffer mutation");
    ([ "Buffer"; "reset" ], 0, "Buffer mutation");
    ([ "Queue"; "push" ], 1, "Queue mutation");
    ([ "Queue"; "add" ], 1, "Queue mutation");
    ([ "Queue"; "pop" ], 0, "Queue mutation");
    ([ "Queue"; "take" ], 0, "Queue mutation");
    ([ "Queue"; "clear" ], 0, "Queue mutation");
    ([ "Stack"; "push" ], 1, "Stack mutation");
    ([ "Stack"; "pop" ], 0, "Stack mutation") ]

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let nth_nolabel args n =
  let nolabels =
    List.filter_map
      (fun (label, a) ->
        match (label, a) with
        | Asttypes.Nolabel, Some a -> Some a
        | _ -> None)
      args
  in
  List.nth_opt nolabels n

(* The argument expression mutated by this application, if the callee is
   a known external mutator. *)
let external_mutation fn args =
  let parts = strip_stdlib (Tast_util.callee_parts fn) in
  if parts = [] then None
  else
    List.find_map
      (fun (suffix, idx, what) ->
        if
          Tast_util.ends_with ~suffix parts
          ||
          (* unqualified operators: [:=] / [incr] / [decr] *)
          (match (suffix, parts) with
          | [ s ], [ p ] -> String.equal s p
          | _ -> false)
        then Option.map (fun a -> (a, what)) (nth_nolabel args idx)
        else None)
      external_mutators

let is_mutex_protect fn =
  let parts = strip_stdlib (Tast_util.callee_parts fn) in
  Tast_util.ends_with ~suffix:[ "Mutex"; "protect" ] parts
  || Tast_util.ends_with ~suffix:[ "Mutex"; "with_lock" ] parts

(* {2 Roots and aliases} *)

(* Chase an expression to the identifier whose state it views: through
   field projections, array/ref reads would lose precision, so only
   direct idents and field paths count. *)
let rec root_of e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some id
  | Texp_field (r, _, _) -> root_of r
  | _ -> None

(* All idents bound anywhere inside [e] (parameters, lets, match arms):
   the task's own state. Stamps make shadowing a non-issue. *)
let bound_idents_in e =
  let tbl = Hashtbl.create 32 in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> Hashtbl.replace tbl (Tast_util.stamp id) ()
          | Tpat_alias (_, id, _) -> Hashtbl.replace tbl (Tast_util.stamp id) ()
          | _ -> ());
          Tast_iterator.default_iterator.pat it p) }
  in
  it.expr it e;
  tbl

(* Alias map: [let x = e] where [e] roots at [r] makes [x] a view of
   [r]. Flow-insensitive over the whole task body. *)
let alias_map_in e =
  let tbl = Hashtbl.create 16 in
  Tast_util.iter_exprs_in e (fun e ->
      match e.exp_desc with
      | Texp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, root_of vb.vb_expr) with
            | Tpat_var (id, _), Some r when not (String.equal (Tast_util.stamp id) (Tast_util.stamp r)) ->
              Hashtbl.replace tbl (Tast_util.stamp id) r
            | _ -> ())
          vbs
      | _ -> ());
  tbl

let rec resolve_alias aliases id depth =
  if depth > 8 then id
  else
    match Hashtbl.find_opt aliases (Tast_util.stamp id) with
    | Some r -> resolve_alias aliases r (depth + 1)
    | None -> id

(* {2 Parameter-mutation summaries} *)

(* Flattened curried parameter slots of a definition: each slot is the
   set of ident stamps that view that parameter (the param ident plus
   any pattern-bound components). Stops where currying stops. *)
let param_slots body =
  let rec go e acc =
    match e.exp_desc with
    | Texp_function { param; cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ }
      ->
      let stamps =
        Tast_util.stamp param
        :: List.map Tast_util.stamp (Tast_util.pattern_idents c_lhs)
      in
      go c_rhs (stamps :: acc)
    | Texp_function { param; cases; _ } ->
      let stamps =
        Tast_util.stamp param
        :: List.concat_map
             (fun c -> List.map Tast_util.stamp (Tast_util.pattern_idents c.c_lhs))
             cases
      in
      (List.rev (stamps :: acc), List.map (fun c -> c.c_rhs) cases)
    | _ -> (List.rev acc, [ e ])
  in
  go body []

(* summaries: def key -> (param index -> description of the mutation) *)
type summaries = (string, (int, string) Hashtbl.t) Hashtbl.t

let def_key (d : Callgraph.def) =
  d.Callgraph.d_unit.Cmt_index.source ^ "#" ^ Tast_util.stamp d.d_id

(* Map application arguments onto the callee's parameter indices:
   labelled arguments are positional here (this code base applies
   labelled functions with labels in declaration order), which is the
   same approximation the zero-alloc walk makes. *)
let arg_exprs args = List.filter_map (fun (_, a) -> a) args

let rec summary graph (summaries : summaries) (d : Callgraph.def) =
  let key = def_key d in
  match Hashtbl.find_opt summaries key with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 4 in
    Hashtbl.replace summaries key s;  (* cycle cut: recursion sees partial *)
    let slots, bodies = param_slots d.Callgraph.d_body in
    let slot_of stamp =
      let rec find i = function
        | [] -> None
        | stamps :: rest ->
          if List.mem stamp stamps then Some i else find (i + 1) rest
      in
      find 0 slots
    in
    let aliases = alias_map_in d.Callgraph.d_body in
    let record_mut e what =
      match root_of e with
      | None -> ()
      | Some id -> (
        let id = resolve_alias aliases id 0 in
        match slot_of (Tast_util.stamp id) with
        | Some i -> if not (Hashtbl.mem s i) then Hashtbl.replace s i what
        | None -> ())
    in
    List.iter
      (fun body ->
        Tast_util.iter_exprs_in body (fun e ->
            match e.exp_desc with
            | Texp_setfield (target, _, _, _) ->
              record_mut target "record field assignment"
            | Texp_apply (fn, args) -> (
              (match external_mutation fn args with
              | Some (target, what) -> record_mut target what
              | None -> ());
              (* transitive: passing a param to a callee that writes it *)
              match fn.exp_desc with
              | Texp_ident (path, _, _) -> (
                match Callgraph.resolve graph d.Callgraph.d_unit path with
                | Callgraph.Def callee when def_key callee <> key ->
                  let cs = summary graph summaries callee in
                  List.iteri
                    (fun j a ->
                      match Hashtbl.find_opt cs j with
                      | Some what ->
                        record_mut a
                          (Printf.sprintf "%s via %s" what
                             callee.Callgraph.d_name)
                      | None -> ())
                    (arg_exprs args)
                | _ -> ())
              | _ -> ())
            | _ -> ()))
      bodies;
    s

(* {2 Task analysis} *)

let report graph summaries (uinfo : Cmt_index.unit_info) ~pool_fn ~bound
    ~aliases task diags =
  let captured e =
    match root_of e with
    | None -> None
    | Some id ->
      let id = resolve_alias aliases id 0 in
      if Hashtbl.mem bound (Tast_util.stamp id) then None else Some id
  in
  let rec scan ~locked e =
    (match e.exp_desc with
    | Texp_setfield (target, _, _, _) when not locked -> (
      match captured target with
      | Some cid ->
        diags :=
          Typed_rule.diag ~rule:id uinfo ~loc:e.exp_loc
            (Printf.sprintf
               "task passed to Pool.%s mutates captured `%s` (record field \
                assignment); shared state needs Atomic or Mutex at the \
                access point"
               pool_fn (Ident.name cid))
          :: !diags
      | None -> ())
    | Texp_apply (fn, args) when not locked -> (
      (match external_mutation fn args with
      | Some (target, what) -> (
        match captured target with
        | Some cid ->
          diags :=
            Typed_rule.diag ~rule:id uinfo ~loc:e.exp_loc
              (Printf.sprintf
                 "task passed to Pool.%s mutates captured `%s` (%s); shared \
                  state needs Atomic or Mutex at the access point"
                 pool_fn (Ident.name cid) what)
            :: !diags
        | None -> ())
      | None -> ());
      match fn.exp_desc with
      | Texp_ident (path, _, _) -> (
        match Callgraph.resolve graph uinfo path with
        | Callgraph.Def callee ->
          let cs = summary graph summaries callee in
          List.iteri
            (fun j a ->
              match Hashtbl.find_opt cs j with
              | Some what -> (
                match captured a with
                | Some cid ->
                  diags :=
                    Typed_rule.diag ~rule:id uinfo ~loc:e.exp_loc
                      (Printf.sprintf
                         "task passed to Pool.%s lets captured `%s` escape \
                          to `%s`, which mutates it (%s); shared state \
                          needs Atomic or Mutex at the access point"
                         pool_fn (Ident.name cid) callee.Callgraph.d_qual
                         what)
                    :: !diags
                | None -> ())
              | None -> ())
            (arg_exprs args)
        | _ -> ())
      | _ -> ())
    | _ -> ());
    let locked = locked || (match e.exp_desc with
      | Texp_apply (fn, _) -> is_mutex_protect fn
      | _ -> false)
    in
    let it =
      { Tast_iterator.default_iterator with
        expr = (fun _ e -> scan ~locked e) }
    in
    Tast_iterator.default_iterator.expr it e
  in
  scan ~locked:false task

let check (input : Typed_rule.input) =
  let graph = input.Typed_rule.graph in
  let summaries : summaries = Hashtbl.create 64 in
  let diags = ref [] in
  List.iter
    (fun (u : Cmt_index.unit_info) ->
      if not (Rule.under [ "lib/obs"; "lib/parallel" ] u.Cmt_index.source)
      then
        let it =
          { Tast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.exp_desc with
                | Texp_apply (fn, args) -> (
                  match List.rev (Tast_util.callee_parts fn) with
                  | f :: "Pool" :: _ when List.mem f pool_fns ->
                    List.iter
                      (fun (_, a) ->
                        match a with
                        | Some arg when Tast_util.is_arrow_type arg.exp_type
                          -> (
                          let analyze body =
                            let bound = bound_idents_in body in
                            let aliases = alias_map_in body in
                            report graph summaries u ~pool_fn:f ~bound
                              ~aliases body diags
                          in
                          match arg.exp_desc with
                          | Texp_function _ -> analyze arg
                          | Texp_ident (path, _, _) -> (
                            match Callgraph.resolve graph u path with
                            | Callgraph.Def d ->
                              analyze d.Callgraph.d_body
                            | _ -> ())
                          | _ -> ())
                        | _ -> ())
                      args
                  | _ -> ())
                | _ -> ());
                Tast_iterator.default_iterator.expr it e) }
        in
        it.structure it u.Cmt_index.structure)
    input.Typed_rule.units;
  !diags

let rule =
  { Typed_rule.id;
    doc =
      "mutable state escaping into Cr_par.Pool tasks (through aliases or \
       callees) must be Atomic/Mutex-synchronized";
    reads = [];
    check }
