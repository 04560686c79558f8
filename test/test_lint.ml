(* The cr_lint static-analysis suite: one known-bad fixture per rule (each
   fires exactly once), guarded/local/out-of-scope negatives, the
   suppression protocol, a golden rendering test, and the clean-tree
   assertion over the real sources.

   The typed (.cmt) tier is exercised against test/lint_fixtures — a
   real compiled library, so the interprocedural rules walk genuine
   typed trees: known-bad cases per rule, a call-chain golden, the
   stale-exemption check, the suppression protocol, and proof that the
   old syntactic pool-purity pass misses what domain-escape catches.
   dead-export runs over test/lint_fixtures/dead, a library with an
   executable and a test-side library that call into it. *)

module Engine = Cr_lint_lib.Engine
module Rule = Cr_lint_lib.Rule
module Typed_engine = Cr_lint_lib.Typed_engine
module Typed_rule = Cr_lint_lib.Typed_rule
module Dead_export = Cr_lint_lib.Dead_export
module Cmt_index = Cr_lint_lib.Cmt_index

(* The filesystem-independent rules: everything except mli-coverage, so
   string fixtures need no sibling files on disk. *)
let ast_rules =
  List.filter (fun r -> not (String.equal r.Rule.id "mli-coverage")) Engine.all_rules

let mli_rule =
  List.filter (fun r -> String.equal r.Rule.id "mli-coverage") Engine.all_rules

let count rule diags =
  List.length (List.filter (fun d -> String.equal d.Rule.rule rule) diags)

(* [src] at [rel] triggers [rule] exactly once and nothing else. *)
let fires_once name rule ~rel src () =
  let diags = Engine.check_source ~rules:ast_rules ~rel src in
  Helpers.check_int (name ^ ": rule fires exactly once") 1 (count rule diags);
  Helpers.check_int (name ^ ": no other diagnostics") 1 (List.length diags)

let clean name ~rel src () =
  let diags = Engine.check_source ~rules:ast_rules ~rel src in
  Helpers.check_int (name ^ ": no diagnostics") 0 (List.length diags)

(* ---- trace-guard ---- *)

let unguarded_emission =
  "let f ctx = Trace.counter ctx \"x\" 1.0\n"

let guarded_emission =
  "let f ctx = if Trace.enabled ctx then Trace.counter ctx \"x\" 1.0\n"

let negated_guard =
  "let f ctx g = if not (Trace.enabled ctx) then g () else Trace.counter ctx \"m\" 1.0\n"

let span_is_exempt =
  "let f ctx g = Trace.span ctx \"phase\" g\n"

let unguarded_metrics =
  "let f reg = Cr_obs.Metrics.inc reg \"route.hops\" 1.0\n"

let guarded_metrics =
  "let f ctx reg =\n\
  \  if Trace.enabled ctx then Cr_obs.Metrics.observe reg \"cost\" 2.0\n"

let unguarded_cost =
  "let f cost = Cr_obs.Cost.record cost ~phase:\"p\" ~src:0 ~dst:1 ~round:0\n\
  \    ~bits:8\n"

let guarded_cost =
  "let f cost =\n\
  \  if Cr_obs.Cost.enabled cost then\n\
  \    Cr_obs.Cost.record cost ~phase:\"p\" ~src:0 ~dst:1 ~round:0 ~bits:8\n"

(* a Trace.enabled guard dominates Cost emissions too (one flag is
   enough when the caller ties both contexts together) *)
let trace_guarded_cost =
  "let f ctx cost =\n\
  \  if Trace.enabled ctx then\n\
  \    Cr_obs.Cost.record cost ~phase:\"p\" ~src:0 ~dst:1 ~round:0 ~bits:8\n"

let unguarded_live =
  "let f live = Cr_obs.Live.record_edge live ~src:0 ~dst:1\n"

let guarded_live =
  "let f live ~src ~dst =\n\
  \  if Cr_obs.Live.enabled live then begin\n\
  \    Cr_obs.Live.tick live;\n\
  \    Cr_obs.Live.record_edge live ~src ~dst\n\
  \  end\n"

(* one Trace.enabled flag may dominate Live emissions too *)
let trace_guarded_live =
  "let f ctx live =\n\
  \  if Trace.enabled ctx then\n\
  \    Cr_obs.Live.record live ~src:0 ~dst:1 ~status:Cr_obs.Live.Delivered\n\
  \      ~dist:1.0 ~cost:1.0 ~hops:1\n"

(* offline registry use: construction / sink folding are not emissions *)
let metrics_sink_is_exempt =
  "let f events =\n\
  \  let reg = Cr_obs.Metrics.create () in\n\
  \  let sink = Cr_obs.Metrics.sink reg in\n\
  \  List.iter sink.Cr_obs.Trace.emit events;\n\
  \  Cr_obs.Metrics.snapshot reg\n"

(* ---- determinism ---- *)

let hashtbl_fold =
  "let f tbl = Hashtbl.fold (fun k _ acc -> k + acc) tbl 0\n"

let wall_clock = "let now () = Unix.gettimeofday ()\n"

(* ---- pool-purity ---- *)

let captured_hashtbl =
  "let f pool n out =\n\
  \  Cr_par.Pool.parallel_init pool n (fun i -> Hashtbl.replace out i i; i)\n"

let captured_array_sugar =
  "let f pool n out =\n\
  \  Cr_par.Pool.parallel_map pool n (fun i -> out.(i) <- i; i)\n"

let local_hashtbl =
  "let f pool n =\n\
  \  Cr_par.Pool.parallel_init pool n (fun i ->\n\
  \      let t = Hashtbl.create 4 in\n\
  \      Hashtbl.replace t i i;\n\
  \      Hashtbl.length t)\n"

let atomic_capture =
  "let f pool n c = Cr_par.Pool.parallel_init pool n (fun i -> Atomic.incr c; i)\n"

(* ---- no-unsafe-compare ---- *)

let bare_compare = "let sort xs = List.sort compare xs\n"

(* [du] becomes float-ish through the let-binding fixpoint: it is bound to
   an application of the distance accessor [d]. *)
let float_eq_via_let = "let f m u v = let du = d m u v in du = du\n"

let int_equality = "let f (a : int) b = a = b\n"

let explicit_float_compare = "let f a b = Float.compare a b = 0\n"

(* ---- mli-coverage (needs real files) ---- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let mli_coverage () =
  let dir = Filename.temp_dir "cr_lint_test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let orphan = Filename.concat dir "orphan.ml" in
      write_file orphan "let x = 1\n";
      let diags =
        Engine.check_source ~rules:mli_rule ~rel:"lib/core/orphan.ml"
          ~abs:orphan "let x = 1\n"
      in
      Helpers.check_int "orphan .ml flagged" 1 (count "mli-coverage" diags);
      let covered = Filename.concat dir "covered.ml" in
      write_file covered "let x = 1\n";
      write_file (covered ^ "i") "val x : int\n";
      let diags =
        Engine.check_source ~rules:mli_rule ~rel:"lib/core/covered.ml"
          ~abs:covered "let x = 1\n"
      in
      Helpers.check_int "covered .ml clean" 0 (List.length diags);
      let diags =
        Engine.check_source ~rules:mli_rule ~rel:"bin/orphan.ml" ~abs:orphan
          "let x = 1\n"
      in
      Helpers.check_int "bin/ exempt" 0 (List.length diags))

(* ---- suppressions ---- *)

let suppressed_fold =
  "(* cr_lint: allow determinism -- fixture: order is erased downstream *)\n"
  ^ hashtbl_fold

let reasonless_suppression =
  "(* cr_lint: allow determinism *)\n" ^ hashtbl_fold

let stale_suppression =
  "(* cr_lint: allow determinism -- nothing left to allow *)\nlet x = 1\n"

let unknown_rule_suppression =
  "(* cr_lint: allow no-such-rule -- misspelled *)\nlet x = 1\n"

let suppression_valid () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/fixture.ml"
      suppressed_fold
  in
  Helpers.check_int "suppression silences the finding" 0 (List.length diags)

let suppression_reasonless () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/fixture.ml"
      reasonless_suppression
  in
  Helpers.check_int "reasonless comment is a syntax error" 1
    (count "suppression-syntax" diags);
  Helpers.check_int "finding is NOT silenced" 1 (count "determinism" diags);
  Helpers.check_int "both are errors" 2 (Engine.error_count diags)

let suppression_stale () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/fixture.ml"
      stale_suppression
  in
  Helpers.check_int "stale suppression reported" 1
    (count "unused-suppression" diags);
  Helpers.check_int "stale suppression is only a warning" 0
    (Engine.error_count diags)

let suppression_unknown_rule () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/fixture.ml"
      unknown_rule_suppression
  in
  Helpers.check_int "unknown rule id is a syntax error" 1
    (count "suppression-syntax" diags);
  Helpers.check_int "unknown rule id fails the build" 1
    (Engine.error_count diags)

(* ---- golden rendering ---- *)

let golden_src =
  "let tick () = Unix.gettimeofday ()\n\n" ^ hashtbl_fold

let golden_expected =
  "lib/metric/golden.ml:1:14: [determinism] Unix.gettimeofday is forbidden \
   here: wall-clock reads outside lib/obs leak nondeterminism into build \
   outputs; use Trace.wall_clock inside guarded instrumentation or \
   Trace.counting_clock for reproducible traces\n\
   lib/metric/golden.ml:3:12: [determinism] Hashtbl.fold is forbidden here: \
   Hashtbl.fold visits bindings in nondeterministic hash order; sort the \
   bindings by key, or keep dense per-id rows\n"

let golden_output () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/golden.ml" golden_src
  in
  let rendered = Format.asprintf "%a" Engine.render_human diags in
  Alcotest.(check string) "human rendering is byte-stable" golden_expected
    rendered

let parse_error_is_reported () =
  let diags =
    Engine.check_source ~rules:ast_rules ~rel:"lib/metric/broken.ml"
      "let let let\n"
  in
  Helpers.check_int "parse error surfaces as a diagnostic" 1
    (count "parse-error" diags);
  Helpers.check_int "parse error fails the build" 1 (Engine.error_count diags)

(* ---- clean tree at HEAD ---- *)

(* The test binary runs from _build/default/test; the build context above
   it holds the copied sources (dune-project plus lib/, and bin/ bench/
   when built). If the layout ever changes this skips quietly —
   [dune build @lint] remains the hard gate. *)
let find_source_root () =
  let rec up dir n =
    let has name = Sys.file_exists (Filename.concat dir name) in
    if n = 0 then None
    else if has "dune-project" && has "lib" then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 8

let clean_tree () =
  match find_source_root () with
  | None -> ()
  | Some root ->
    let paths =
      List.filter
        (fun p -> Sys.file_exists (Filename.concat root p))
        [ "lib"; "bin"; "bench" ]
    in
    let report = Engine.run ~root paths in
    Helpers.check_bool "scanned a substantial tree" true
      (report.Engine.files > 30);
    let rendered =
      Format.asprintf "%a" Engine.render_human report.Engine.diagnostics
    in
    Alcotest.(check string) "zero findings at HEAD" "" rendered

(* ---- typed tier (.cmt rules over test/lint_fixtures) ---- *)

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) frag || go (i + 1)) in
  m = 0 || go 0

let fixture_dir = "test/lint_fixtures"

(* The typed tier needs the *build context* root — the directory holding
   the .objs trees — which, unlike the source root, has no dune-project
   marker. The fixture library's own .objs directory is the marker: it
   exists whenever this binary runs, because the library is one of its
   link dependencies. *)
let find_build_root () =
  let marker = fixture_dir ^ "/.cr_lint_fixtures.objs" in
  let rec up dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir marker) then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 8

let typed_fixture_report name ids =
  match find_build_root () with
  | None -> Alcotest.fail (name ^ ": build context root not found")
  | Some root ->
    let rules =
      List.filter
        (fun r -> List.mem r.Typed_rule.id ids)
        Typed_engine.all_rules
    in
    Typed_engine.run ~rules ~root [ fixture_dir ]

let typed_msgs rule (r : Typed_engine.report) =
  List.filter_map
    (fun d ->
      if String.equal d.Rule.rule rule then Some d.Rule.message else None)
    r.Typed_engine.diagnostics

let zero_alloc_fixtures () =
  let r = typed_fixture_report "zero-alloc" [ "zero-alloc" ] in
  let msgs = typed_msgs "zero-alloc" r in
  Helpers.check_int "zero-alloc: violation plus stale exemption" 2
    (List.length msgs);
  Helpers.check_int "zero-alloc: exactly one error" 1
    (Engine.error_count r.Typed_engine.diagnostics);
  Helpers.check_bool "call-chain golden" true
    (List.mem
       "tuple construction on [@cr.zero_alloc] path from \
        Cr_lint_fixtures__Fx_alloc.fetch (call chain: fetch -> build_pair)"
       msgs);
  Helpers.check_bool "stale [@cr.alloc_ok] reported" true
    (List.mem
       "[@cr.alloc_ok] guards no allocation; delete the stale annotation"
       msgs);
  (* the zero-alloc suppression in fx_suppress guards nothing and this
     run owns the rule, so it must be flagged *)
  Helpers.check_int "unused typed suppression reported" 1
    (count "unused-suppression" r.Typed_engine.diagnostics)

let domain_escape_fixtures () =
  let r = typed_fixture_report "domain-escape" [ "domain-escape" ] in
  let msgs = typed_msgs "domain-escape" r in
  Helpers.check_int "domain-escape: callee escape + alias write" 2
    (List.length msgs);
  Helpers.check_int "domain-escape: both are errors" 2
    (Engine.error_count r.Typed_engine.diagnostics);
  let has frag = List.exists (fun m -> contains m frag) msgs in
  Helpers.check_bool "escape-to-callee finding names the callee" true
    (has "escape to `Cr_lint_fixtures__Fx_escape.fill`");
  Helpers.check_bool "alias write resolves to the captured root" true
    (has "mutates captured `out` (array write)");
  (* the suppressed fan_bump escape must not appear, and its suppression
     is used, so nothing stale is reported either *)
  Helpers.check_int "suppressed finding silenced, suppression not stale" 0
    (count "unused-suppression" r.Typed_engine.diagnostics)

let wire_exhaustive_fixtures () =
  let r = typed_fixture_report "wire-exhaustive" [ "wire-exhaustive" ] in
  let msgs = typed_msgs "wire-exhaustive" r in
  Helpers.check_int "wire-exhaustive: missing ctor + catch-all" 2
    (List.length msgs);
  let has frag = List.exists (fun m -> contains m frag) msgs in
  Helpers.check_bool "missing constructor named" true
    (has "constructor `Gone` of message type `Cr_lint_fixtures__Fx_wire.msg`");
  Helpers.check_bool "catch-all flagged" true (has "catch-all pattern")

(* The interprocedural gap the typed tier exists to close: the syntactic
   pool-purity rule sees nothing wrong with fx_escape.ml (the mutations
   hide behind a callee and an alias), while domain-escape reports both. *)
let old_pool_purity_misses () =
  match find_source_root () with
  | None -> ()
  | Some root ->
    let path = Filename.concat root (fixture_dir ^ "/fx_escape.ml") in
    if Sys.file_exists path then begin
      let src = In_channel.with_open_text path In_channel.input_all in
      let pool_purity =
        List.filter
          (fun r -> String.equal r.Rule.id "pool-purity")
          Engine.all_rules
      in
      let diags =
        Engine.check_source ~rules:pool_purity ~rel:"lib/sim/fx_escape.ml" src
      in
      Helpers.check_int "syntactic pool-purity reports nothing here" 0
        (List.length diags)
    end

(* fx_live.ml compiles as part of the fixture library (so the typed tier
   walks it too), but its unguarded emission is a *syntactic* trace-guard
   case: linted at a lib/ path it must fire exactly once — the guarded
   [watched] function stays silent. *)
let live_fixture_fires () =
  match find_source_root () with
  | None -> ()
  | Some root ->
    let path = Filename.concat root (fixture_dir ^ "/fx_live.ml") in
    if Sys.file_exists path then begin
      let src = In_channel.with_open_text path In_channel.input_all in
      let trace_guard =
        List.filter
          (fun r -> String.equal r.Rule.id "trace-guard")
          Engine.all_rules
      in
      let diags =
        Engine.check_source ~rules:trace_guard ~rel:"lib/sim/fx_live.ml" src
      in
      Helpers.check_int "exactly the unguarded Live emission" 1
        (List.length diags);
      Helpers.check_bool "finding names the Live flag" true
        (match diags with
        | [ d ] -> contains d.Rule.message "Live.enabled"
        | _ -> false)
    end

(* ---- dead-export (test/lint_fixtures/dead: lib/ declares, bin/ is an
   executable that refers, test/ is the test side) ---- *)

let dead_dir = fixture_dir ^ "/dead"
let dead_api = dead_dir ^ "/lib/dx_api.mli"

let dead_report () =
  match find_build_root () with
  | None -> Alcotest.fail "dead-export: build context root not found"
  | Some root ->
    let layout =
      { Dead_export.decls = [ dead_dir ^ "/lib" ];
        refs = [ dead_dir ^ "/lib"; dead_dir ^ "/bin" ];
        tests = [ dead_dir ^ "/test" ] }
    in
    Typed_engine.run ~rules:[ Dead_export.rule_for layout ] ~root
      [ dead_dir ^ "/lib" ]

(* The dead-export findings about the val named [name]. *)
let dead_findings name =
  List.filter
    (fun d ->
      String.equal d.Rule.rule "dead-export"
      && contains d.Rule.message ("." ^ name ^ "`"))
    (dead_report ()).Typed_engine.diagnostics

let dead_flagged name ~says () =
  match dead_findings name with
  | [ d ] ->
    Alcotest.(check string) "at the .mli" dead_api d.Rule.file;
    Helpers.check_bool ("message says " ^ says) true (contains d.Rule.message says)
  | ds -> Alcotest.failf "%s: expected one finding, got %d" name (List.length ds)

let dead_clean name () =
  Helpers.check_int (name ^ ": no finding") 0 (List.length (dead_findings name))

(* dx_api.mli's suppressions sit on line 16 (above [suppressed], which
   no unit uses) and line 19 (above [stale], which the executable calls). *)
let dead_stale_lines () =
  List.filter_map
    (fun d ->
      if String.equal d.Rule.rule "unused-suppression" then
        Some (d.Rule.file, d.Rule.line)
      else None)
    (dead_report ()).Typed_engine.diagnostics

let dead_suppressed () =
  dead_clean "suppressed" ();
  Helpers.check_bool "its suppression is used" false
    (List.mem (dead_api, 16) (dead_stale_lines ()))

let dead_stale () =
  Alcotest.(check (list (pair string int)))
    "the suppression above [stale] is reported" [ (dead_api, 19) ]
    (dead_stale_lines ())

let typed_clean_tree () =
  match find_build_root () with
  | None -> ()
  | Some root ->
    let paths =
      List.filter
        (fun p -> Sys.file_exists (Filename.concat root p))
        [ "lib"; "bin"; "bench" ]
    in
    let report = Typed_engine.run ~root paths in
    Helpers.check_bool "typed tier loaded a substantial tree" true
      (report.Typed_engine.units > 30);
    List.iter
      (fun dir ->
        Helpers.check_bool (dir ^ "/ executables' trees loaded") true
          (Cmt_index.load ~root [ dir ] <> []))
      [ "bin"; "bench" ];
    let rendered =
      Format.asprintf "%a" Engine.render_human report.Typed_engine.diagnostics
    in
    Alcotest.(check string) "typed tier: zero findings at HEAD" "" rendered

let case name f = Alcotest.test_case name `Quick f

let suite =
  [ case "trace-guard: unguarded emission fires"
      (fires_once "trace-guard" "trace-guard" ~rel:"lib/sim/fixture.ml"
         unguarded_emission);
    case "trace-guard: Trace.enabled guard silences"
      (clean "guarded" ~rel:"lib/sim/fixture.ml" guarded_emission);
    case "trace-guard: negated guard covers the else branch"
      (clean "negated" ~rel:"lib/sim/fixture.ml" negated_guard);
    case "trace-guard: Trace.span is exempt"
      (clean "span" ~rel:"lib/sim/fixture.ml" span_is_exempt);
    case "trace-guard: unguarded Metrics emission fires"
      (fires_once "metrics" "trace-guard" ~rel:"lib/sim/fixture.ml"
         unguarded_metrics);
    case "trace-guard: guarded Metrics emission is fine"
      (clean "metrics guarded" ~rel:"lib/sim/fixture.ml" guarded_metrics);
    case "trace-guard: Metrics sink folding is exempt"
      (clean "metrics sink" ~rel:"lib/sim/fixture.ml" metrics_sink_is_exempt);
    case "trace-guard: unguarded Cost emission fires"
      (fires_once "cost" "trace-guard" ~rel:"lib/proto/fixture.ml"
         unguarded_cost);
    case "trace-guard: Cost.enabled guard silences"
      (clean "cost guarded" ~rel:"lib/proto/fixture.ml" guarded_cost);
    case "trace-guard: Trace.enabled guard covers Cost emissions"
      (clean "cost trace-guarded" ~rel:"lib/proto/fixture.ml"
         trace_guarded_cost);
    case "trace-guard: unguarded Live emission fires"
      (fires_once "live" "trace-guard" ~rel:"lib/sim/fixture.ml"
         unguarded_live);
    case "trace-guard: Live.enabled guard silences tick and record"
      (clean "live guarded" ~rel:"lib/sim/fixture.ml" guarded_live);
    case "trace-guard: Trace.enabled guard covers Live emissions"
      (clean "live trace-guarded" ~rel:"lib/serve/fixture.ml"
         trace_guarded_live);
    case "determinism: Hashtbl.fold in pooled dirs fires"
      (fires_once "determinism" "determinism" ~rel:"lib/metric/fixture.ml"
         hashtbl_fold);
    case "determinism: Hashtbl.fold outside pooled dirs is fine"
      (clean "unpooled" ~rel:"lib/tree_routing/fixture.ml" hashtbl_fold);
    case "determinism: wall clock in lib/ fires"
      (fires_once "determinism" "determinism" ~rel:"lib/nets/fixture.ml"
         wall_clock);
    case "determinism: wall clock in lib/obs is fine"
      (clean "obs clock" ~rel:"lib/obs/fixture.ml" wall_clock);
    case "pool-purity: captured Hashtbl mutation fires"
      (fires_once "pool-purity" "pool-purity" ~rel:"lib/sim/fixture.ml"
         captured_hashtbl);
    case "pool-purity: a.(i) <- sugar fires"
      (fires_once "pool-purity" "pool-purity" ~rel:"lib/sim/fixture.ml"
         captured_array_sugar);
    case "pool-purity: closure-local table is fine"
      (clean "local" ~rel:"lib/sim/fixture.ml" local_hashtbl);
    case "pool-purity: Atomic updates are fine"
      (clean "atomic" ~rel:"lib/sim/fixture.ml" atomic_capture);
    case "no-unsafe-compare: bare compare fires"
      (fun () ->
        List.iter
          (fun rel ->
            fires_once rel "no-unsafe-compare" ~rel bare_compare ())
          [ "lib/metric/fixture.ml"; "lib/packing/fixture.ml";
            "lib/proto/fixture.ml"; "lib/codec/fixture.ml";
            "bench/fixture.ml" ]);
    case "no-unsafe-compare: float (=) via let-propagation fires"
      (fires_once "no-unsafe-compare" "no-unsafe-compare"
         ~rel:"lib/metric/fixture.ml" float_eq_via_let);
    case "no-unsafe-compare: int (=) is fine"
      (clean "int eq" ~rel:"lib/metric/fixture.ml" int_equality);
    case "no-unsafe-compare: Float.compare is fine"
      (clean "float compare" ~rel:"lib/metric/fixture.ml"
         explicit_float_compare);
    case "no-unsafe-compare: in scope in lib/obs"
      (fires_once "lib/obs" "no-unsafe-compare" ~rel:"lib/obs/fixture.ml"
         bare_compare);
    case "no-unsafe-compare: out of scope outside lib, bench and bin"
      (clean "scope" ~rel:"tools/fixture.ml" bare_compare);
    case "mli-coverage: orphan flagged, covered and bin/ clean" mli_coverage;
    case "suppression: with reason, silences" suppression_valid;
    case "suppression: reasonless is an error" suppression_reasonless;
    case "suppression: stale is a warning" suppression_stale;
    case "suppression: unknown rule id is an error" suppression_unknown_rule;
    case "golden: human rendering is byte-stable" golden_output;
    case "parse errors become diagnostics" parse_error_is_reported;
    case "clean tree: zero findings at HEAD" clean_tree;
    case "typed: zero-alloc chain, stale exemption, unused suppression"
      zero_alloc_fixtures;
    case "typed: domain-escape catches callee and alias mutations"
      domain_escape_fixtures;
    case "typed: wire-exhaustive flags missing ctor and catch-all"
      wire_exhaustive_fixtures;
    case "typed: syntactic pool-purity misses the escape fixtures"
      old_pool_purity_misses;
    case "trace-guard: fx_live fixture fires once at a lib path"
      live_fixture_fires;
    case "dead-export: a value used nowhere is flagged"
      (dead_flagged "nowhere" ~says:"no other unit uses it");
    case "dead-export: a test-only value is flagged with its test file"
      (dead_flagged "test_only" ~says:(dead_dir ^ "/test/dx_test.ml"));
    case "dead-export: a value an executable calls is clean"
      (dead_clean "by_exe");
    case "dead-export: a value reached through include is clean"
      (dead_clean "included");
    case "dead-export: a value reached through a module alias is clean"
      (dead_clean "via_alias");
    case "dead-export: a reasoned .mli suppression silences the finding"
      dead_suppressed;
    case "dead-export: a stale .mli suppression is reported" dead_stale;
    case "typed: clean tree: zero findings at HEAD" typed_clean_tree ]
