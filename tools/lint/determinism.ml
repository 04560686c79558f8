(* determinism: the pooled build paths must produce pool-size-invariant,
   run-to-run-identical outputs (the Cr_par contract enforced dynamically
   by test/test_parallel.ml). Two families of bans:

   - [Hashtbl.iter]/[Hashtbl.fold] and [Random.self_init] in the pooled
     directories: hash-bucket order is seed- and history-dependent, so any
     fold that extracts a minimum or builds a list from it silently
     depends on insertion order. Sort the bindings by key before
     folding, or keep dense per-id rows (ids are dense in [0, n)) and
     loop over them in id order.
   - wall-clock reads ([Unix.gettimeofday], [Sys.time]) anywhere in lib/
     outside lib/obs: clocks belong to the observability layer
     ([Trace.wall_clock] / [Trace.counting_clock]), never to build
     outputs. *)

module A = Ast_util

let id = "determinism"

let pooled_dirs =
  [ "lib/core"; "lib/metric"; "lib/sim"; "lib/proto"; "lib/fault";
    "lib/serve"; "lib/scale" ]

let pooled rel = Rule.under pooled_dirs rel

let clocked rel = Rule.under [ "lib" ] rel && not (Rule.under [ "lib/obs" ] rel)

let banned =
  [ ( [ "Hashtbl"; "iter" ],
      pooled,
      "Hashtbl.iter visits bindings in nondeterministic hash order; sort \
       the bindings by key, or keep dense per-id rows" );
    ( [ "Hashtbl"; "fold" ],
      pooled,
      "Hashtbl.fold visits bindings in nondeterministic hash order; sort \
       the bindings by key, or keep dense per-id rows" );
    ( [ "Random"; "self_init" ],
      pooled,
      "Random.self_init makes build outputs irreproducible; thread an \
       explicit seed (Cr_graphgen.Rng)" );
    ( [ "Unix"; "gettimeofday" ],
      clocked,
      "wall-clock reads outside lib/obs leak nondeterminism into build \
       outputs; use Trace.wall_clock inside guarded instrumentation or \
       Trace.counting_clock for reproducible traces" );
    ( [ "Sys"; "time" ],
      clocked,
      "wall-clock reads outside lib/obs leak nondeterminism into build \
       outputs; time things via Cr_obs spans instead" ) ]

let check (input : Rule.input) =
  let diags = ref [] in
  A.iter_exprs input.Rule.structure (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } ->
        let path = A.flatten txt in
        List.iter
          (fun (suffix, scope, why) ->
            if A.ends_with ~suffix path && scope input.Rule.rel then
              diags :=
                Rule.diag ~rule:id ~file:input.Rule.rel ~loc:e.Parsetree.pexp_loc
                  (Printf.sprintf "%s is forbidden here: %s"
                     (String.concat "." suffix)
                     why)
                :: !diags)
          banned
      | _ -> ());
  !diags

let rule =
  { Rule.id;
    doc =
      "no Hashtbl iteration order, self-seeded RNG, or wall clocks in the \
       deterministic build paths";
    applies = (fun rel -> pooled rel || clocked rel);
    check }
