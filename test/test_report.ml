(* Tests for the machine-readable report pipeline: Cr_sim.Report
   construction and its byte-stable JSON, the cr_report JSON parser, the
   tolerance-classed diff (seeded synthetic regressions must trip the
   gate), the paper-bound checker, and the cross-pool determinism of the
   report's metrics projection. *)

open Helpers
module Report = Cr_sim.Report
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Pool = Cr_par.Pool
module Json = Cr_report_lib.Json
module Diff = Cr_report_lib.Diff
module Check = Cr_report_lib.Check

(* ---- Report construction ---- *)

let sample_report () =
  let t = Report.create ~experiment:"e-test" in
  Report.add_row t ~family:"grid-6x6" ~scheme:"hier"
    ~timings:[ ("eval.seconds", 0.25) ]
    [ ("stretch.max", Report.Float 1.5);
      ("pairs", Report.Int 100);
      ("note", Report.Str "x\"y") ];
  Report.add_row t ~family:"grid-6x6" ~scheme:"hier" ~discriminator:"2"
    [ ("stretch.max", Report.Float 1.25) ];
  t

let test_add_row_discipline () =
  let t = sample_report () in
  Alcotest.(check (list string))
    "rows in insertion order, discriminator appended"
    [ "hier"; "hier@2" ]
    (List.map (fun r -> r.Report.scheme) (Report.rows t));
  Alcotest.(check (list string))
    "metric keys sorted at insertion"
    [ "note"; "pairs"; "stretch.max" ]
    (List.map fst (List.hd (Report.rows t)).Report.metrics);
  Alcotest.check_raises "duplicate row"
    (Invalid_argument "Report.add_row: duplicate row grid-6x6/hier")
    (fun () -> Report.add_row t ~family:"grid-6x6" ~scheme:"hier" []);
  Alcotest.check_raises "duplicate metric key"
    (Invalid_argument "Report.add_row: duplicate metric key k") (fun () ->
      Report.add_row t ~family:"f" ~scheme:"s"
        [ ("k", Report.Int 1); ("k", Report.Int 2) ])

let test_to_json_golden () =
  let t = sample_report () in
  Alcotest.(check string) "byte-stable rendering"
    "{\"schema\":1,\"experiment\":\"e-test\",\"rows\":[\n\
    \ {\"family\":\"grid-6x6\",\"scheme\":\"hier\",\"metrics\":{\"note\":\"x\\\"y\",\"pairs\":100,\"stretch.max\":1.5},\"timings\":{\"eval.seconds\":0.25}},\n\
    \ {\"family\":\"grid-6x6\",\"scheme\":\"hier@2\",\"metrics\":{\"stretch.max\":1.25},\"timings\":{}}]}\n"
    (Report.to_json t);
  Alcotest.(check string) "deterministic projection drops timings"
    "{\"schema\":1,\"experiment\":\"e-test\",\"rows\":[\n\
    \ {\"family\":\"grid-6x6\",\"scheme\":\"hier\",\"metrics\":{\"note\":\"x\\\"y\",\"pairs\":100,\"stretch.max\":1.5}},\n\
    \ {\"family\":\"grid-6x6\",\"scheme\":\"hier@2\",\"metrics\":{\"stretch.max\":1.25}}]}\n"
    (Report.to_json ~timings:false t)

let test_of_summary_and_snapshot () =
  let s = Stats.summarize [ (1.0, 1.5, 3); (2.0, 2.0, 2) ] in
  let fields = Report.of_summary s in
  check_int "pairs" 2
    (match List.assoc "pairs" fields with Report.Int i -> i | _ -> -1);
  check_float "stretch.max" 1.5
    (match List.assoc "stretch.max" fields with
    | Report.Float f -> f
    | _ -> Float.nan);
  let reg = Cr_obs.Metrics.create () in
  Cr_obs.Metrics.inc reg "hops" 5.0;
  Cr_obs.Metrics.observe reg "cost" 2.0;
  let flat = Report.of_snapshot (Cr_obs.Metrics.snapshot reg) in
  Alcotest.(check (list string))
    "snapshot flattening" [ "cost.count"; "cost.sum"; "hops" ]
    (List.map fst flat)

(* ---- the cr_report JSON parser ---- *)

let test_json_roundtrip () =
  let t = sample_report () in
  let src = Report.to_json t in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    (* render/re-parse fixpoint: the parser and renderer agree *)
    (match Json.parse (Json.render j) with
    | Ok j2 -> check_bool "render/parse fixpoint" true (Json.equal j j2)
    | Error e -> Alcotest.failf "re-parse failed: %s" e);
    (match Json.member "schema" j with
    | Some (Json.Num f) -> check_float "schema" 1.0 f
    | _ -> Alcotest.fail "schema member missing");
    (match Json.member "rows" j with
    | Some (Json.Arr rows) -> check_int "two rows" 2 (List.length rows)
    | _ -> Alcotest.fail "rows member missing")

let test_json_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "truncated object" true (bad "{\"a\":1");
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "bare word" true (bad "nope");
  (* the non-finite tokens render as strings, so they stay valid JSON *)
  match Json.parse "[\"NaN\",\"Infinity\",\"-Infinity\"]" with
  | Ok (Json.Arr [ Json.Str "NaN"; Json.Str "Infinity"; Json.Str "-Infinity" ])
    -> ()
  | _ -> Alcotest.fail "non-finite tokens should parse as strings"

(* ---- diff: the regression gate ---- *)

let parse_exn s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "fixture parse failed: %s" e

(* A path that opens but cannot be read (a directory) and one that does
   not exist are errors naming the path, not exceptions. *)
let test_json_unreadable () =
  let names_path path =
    match Json.parse_file path with
    | Ok _ -> false
    | Error msg -> String.starts_with ~prefix:(path ^ ": ") msg
  in
  let dir = Filename.get_temp_dir_name () in
  check_bool "directory" true (names_path dir);
  check_bool "missing file" true
    (names_path (Filename.concat dir "cr-report-no-such-file.json"))

(* A run's manifest is recognized (check skips it); a report is not. *)
let test_manifest_recognized () =
  check_bool "manifest" true
    (Check.is_manifest
       (parse_exn
          {|{"schema":1,"kind":"manifest","cr_domains":1,"experiments":["e1"]}|}));
  check_bool "report" false
    (Check.is_manifest (parse_exn (Report.to_json (sample_report ()))))

let baseline_json () = parse_exn (Report.to_json (sample_report ()))

let test_diff_identical () =
  let findings =
    Diff.diff_reports (baseline_json ()) (baseline_json ())
  in
  check_int "no findings" 0 (List.length findings);
  check_bool "no regression" false (Diff.has_regression findings);
  Alcotest.(check string) "human rendering" "identical (no findings)\n"
    (Diff.render_human findings)

(* the acceptance scenario: a seeded synthetic regression must trip the
   gate (non-zero severity), byte-stably *)
let test_diff_seeded_regression () =
  let t = Report.create ~experiment:"e-test" in
  Report.add_row t ~family:"grid-6x6" ~scheme:"hier"
    ~timings:[ ("eval.seconds", 0.25) ]
    [ ("pairs", Report.Int 100);
      ("note", Report.Str "x\"y");
      ("stretch.max", Report.Float 9.75) ];
  (* hier@2 row dropped entirely; stretch.max degraded above *)
  let current = parse_exn (Report.to_json t) in
  let findings = Diff.diff_reports (baseline_json ()) current in
  check_bool "gate trips" true (Diff.has_regression findings);
  Alcotest.(check string) "deterministic findings"
    "REGRESSION grid-6x6/hier/metrics/stretch.max: 1.5 -> 9.75 \
     (deterministic field changed)\n\
     REGRESSION grid-6x6/hier@2: row vanished\n"
    (Diff.render_human findings);
  let md = Diff.render_markdown findings in
  check_bool "markdown table header" true
    (String.length md > 0 && String.sub md 0 10 = "| severity")

let with_timing secs =
  let t = Report.create ~experiment:"e-test" in
  Report.add_row t ~family:"f" ~scheme:"s"
    ~timings:[ ("eval.seconds", secs) ]
    [ ("pairs", Report.Int 1) ];
  parse_exn (Report.to_json t)

let test_diff_timing_tolerance () =
  let base = with_timing 1.0 in
  (* within the default +50% threshold: not a finding at all *)
  check_bool "within tolerance" false
    (Diff.has_regression (Diff.diff_reports base (with_timing 1.4)));
  (* beyond it: regression *)
  let findings = Diff.diff_reports base (with_timing 2.0) in
  check_bool "beyond tolerance" true (Diff.has_regression findings);
  (* a custom tolerance moves the threshold *)
  check_bool "loose tolerance passes" false
    (Diff.has_regression
       (Diff.diff_reports ~timing_tolerance:2.0 base (with_timing 2.0)));
  (* faster is a note, never a regression *)
  let faster = Diff.diff_reports base (with_timing 0.25) in
  check_bool "faster not a regression" false (Diff.has_regression faster);
  check_int "faster is a note" 1 (List.length faster);
  (* --ignore-timings drops the class entirely *)
  check_int "ignored timings" 0
    (List.length (Diff.diff_reports ~ignore_timings:true base (with_timing 9.0)))

let test_diff_schema_guard () =
  let findings =
    Diff.diff_reports (baseline_json ()) (parse_exn "{\"rows\":[]}")
  in
  check_bool "missing schema is a regression" true
    (Diff.has_regression findings)

(* ---- check: the paper-bound validator ---- *)

let check_fixture ~scheme ~stretch ~label_bits =
  let t = Report.create ~experiment:"e-test" in
  Report.add_row t ~family:"grid-6x6" ~scheme
    ([ ("n", Report.Int 36);
       ("delta", Report.Float 10.0);
       ("stretch.max", Report.Float stretch);
       ("table_bits.max", Report.Int 2000);
       ("fallback_count", Report.Int 0) ]
    @
    match label_bits with
    | Some b -> [ ("label_bits", Report.Int b) ]
    | None -> []);
  parse_exn (Report.to_json t)

let test_check_bounds () =
  (* within every bound: 9 + eps + 2/eps = 13.5 at eps = 0.5 *)
  let ok =
    Check.check_report
      (check_fixture ~scheme:"simple name-independent (Thm 1.4)" ~stretch:9.1
         ~label_bits:None)
  in
  check_bool "NI within bounds" true (Check.all_ok ok);
  check_bool "produced findings" true (List.length ok > 0);
  (* a fabricated stretch blow-up must be flagged *)
  let bad =
    Check.check_report
      (check_fixture ~scheme:"simple name-independent (Thm 1.4)" ~stretch:20.0
         ~label_bits:None)
  in
  check_bool "NI violation caught" false (Check.all_ok bad);
  check_bool "violation rendered" true
    (let s = Check.render_human bad in
     let needle = "VIOLATION" in
     let n = String.length needle and h = String.length s in
     let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
     go 0);
  (* labeled: stretch ceiling is 1 + 2 eps, label must be ceil(log2 n) *)
  let labeled_ok =
    Check.check_report
      (check_fixture ~scheme:"hier-labeled (Lemma 3.1)" ~stretch:1.4
         ~label_bits:(Some 6))
  in
  check_bool "labeled within bounds" true (Check.all_ok labeled_ok);
  let labeled_bad_label =
    Check.check_report
      (check_fixture ~scheme:"hier-labeled (Lemma 3.1)" ~stretch:1.4
         ~label_bits:(Some 7))
  in
  check_bool "non-optimal label caught" false (Check.all_ok labeled_bad_label);
  (* unknown schemes are skipped, not failed *)
  let skipped =
    Check.check_report
      (check_fixture ~scheme:"full-table baseline" ~stretch:1.0
         ~label_bits:None)
  in
  check_bool "baseline rows skipped" true (Check.all_ok skipped)

let test_check_fallback () =
  let t = Report.create ~experiment:"e-test" in
  Report.add_row t ~family:"f" ~scheme:"fig1"
    [ ("fallback_count", Report.Int 3) ];
  let findings = Check.check_report (parse_exn (Report.to_json t)) in
  check_bool "nonzero fallback flagged" false (Check.all_ok findings)

(* ---- cross-pool determinism of the metrics projection ---- *)

(* The acceptance criterion in miniature: the same measurement run under
   different pool sizes must render byte-identical deterministic
   projections. *)
let test_cross_pool_projection () =
  let m = grid6 () in
  let n = Metric.n m in
  let labeled = Cr_baselines.Full_table.labeled m in
  let pairs = Workload.pairs_for ~n ~seed:18 ~budget:60 in
  let report_at domains =
    let pool = Pool.create ~domains () in
    let summary = Stats.measure_labeled ~pool m labeled pairs in
    let t = Report.create ~experiment:"pool-proj" in
    Report.add_row t ~family:"grid-6x6" ~scheme:"full-table"
      ~timings:[ ("eval.seconds", float_of_int domains) ]
      (Report.of_summary summary);
    Report.to_json ~timings:false t
  in
  Alcotest.(check string) "pool-size-invariant projection" (report_at 1)
    (report_at 3)

let suite =
  [ Alcotest.test_case "add_row discipline" `Quick test_add_row_discipline;
    Alcotest.test_case "to_json golden" `Quick test_to_json_golden;
    Alcotest.test_case "of_summary / of_snapshot" `Quick
      test_of_summary_and_snapshot;
    Alcotest.test_case "json parser roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser errors" `Quick test_json_errors;
    Alcotest.test_case "json: unreadable paths are named errors" `Quick
      test_json_unreadable;
    Alcotest.test_case "check: a run manifest is recognized" `Quick
      test_manifest_recognized;
    Alcotest.test_case "diff: identical reports" `Quick test_diff_identical;
    Alcotest.test_case "diff: seeded regression trips gate" `Quick
      test_diff_seeded_regression;
    Alcotest.test_case "diff: timing tolerance" `Quick
      test_diff_timing_tolerance;
    Alcotest.test_case "diff: schema guard" `Quick test_diff_schema_guard;
    Alcotest.test_case "check: paper bounds" `Quick test_check_bounds;
    Alcotest.test_case "check: fallback must be zero" `Quick
      test_check_fallback;
    Alcotest.test_case "cross-pool deterministic projection" `Quick
      test_cross_pool_projection ]
