(* trace-guard: every Cr_obs.Trace emission outside lib/obs — and every
   direct Cr_obs.Metrics registry emission (inc/set/observe), Cost
   ledger charge, and Live telemetry record — must be dominated by an
   [enabled] test, so the null-sink path never even allocates the event
   payload (the ROADMAP's zero-overhead contract).
   Offline registry use (folding a captured event list through
   [Metrics.sink], as bench and crdemo do) never calls inc/set/observe
   directly and stays clean.

   The analysis tracks a single "guarded" flag down the expression tree:
   [if <cond mentioning Trace.enabled> then e1 else e2] marks [e1] guarded
   when the mention is positive and [e2] guarded when the condition is
   [not (... Trace.enabled ...)]. [Trace.span] is exempt: it tests
   [enabled] internally and must run its body either way. *)

open Parsetree
module A = Ast_util

let id = "trace-guard"

let trace_fns = [ "emit"; "counter"; "hop"; "message" ]
let metrics_fns = [ "inc"; "set"; "observe" ]
let cost_fns = [ "record"; "emit" ]
let live_fns = [ "record"; "record_edge"; "tick" ]

(* (module, fn) of an emission call, e.g. ("Trace", "hop"). *)
let emission_name f =
  match List.rev (A.path_of f) with
  | fn :: "Trace" :: _ when List.mem fn trace_fns -> Some ("Trace", fn)
  | fn :: "Metrics" :: _ when List.mem fn metrics_fns -> Some ("Metrics", fn)
  | fn :: "Cost" :: _ when List.mem fn cost_fns -> Some ("Cost", fn)
  | fn :: "Live" :: _ when List.mem fn live_fns -> Some ("Live", fn)
  | _ -> None

(* Cost accounting and Live telemetry carry their own enabled flags
   (null-accumulator pattern mirroring the null trace context), so any
   of the three guards satisfies the zero-overhead contract. *)
let is_enabled_app e =
  match e.pexp_desc with
  | Pexp_apply (f, _) ->
    let path = A.path_of f in
    A.ends_with ~suffix:[ "Trace"; "enabled" ] path
    || A.ends_with ~suffix:[ "Cost"; "enabled" ] path
    || A.ends_with ~suffix:[ "Live"; "enabled" ] path
  | _ -> false

let mentions_enabled e = A.exists_expr is_enabled_app e

let negated_guard cond =
  match cond.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "not"; _ }; _ },
        [ (_, arg) ] ) ->
    mentions_enabled arg
  | _ -> false

let check (input : Rule.input) =
  let diags = ref [] in
  let guarded = ref false in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ifthenelse (cond, e_then, e_else) ->
            let saved = !guarded in
            it.expr it cond;
            guarded :=
              saved || (mentions_enabled cond && not (negated_guard cond));
            it.expr it e_then;
            guarded := saved || negated_guard cond;
            Option.iter (it.expr it) e_else;
            guarded := saved
          | Pexp_apply (f, _) when not !guarded -> (
            (match emission_name f with
            | Some (m, fn) ->
              diags :=
                Rule.diag ~rule:id ~file:input.Rule.rel ~loc:e.pexp_loc
                  (Printf.sprintf
                     "unguarded %s.%s emission; dominate it with `if \
                      Trace.enabled ctx then ...` (or `if Cost.enabled \
                      cost then ...` / `if Live.enabled live then ...`) \
                      so the null-sink path stays zero-overhead"
                     m fn)
                :: !diags
            | None -> ());
            Ast_iterator.default_iterator.expr it e)
          | _ -> Ast_iterator.default_iterator.expr it e) }
  in
  it.structure it input.Rule.structure;
  !diags

let rule =
  { Rule.id;
    doc =
      "Trace/Metrics/Cost/Live emissions outside lib/obs must be guarded \
       by Trace.enabled, Cost.enabled, or Live.enabled (zero-overhead \
       null sink)";
    applies = (fun rel -> not (Rule.under [ "lib/obs" ] rel));
    check }
