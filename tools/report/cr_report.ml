(* cr_report — the bench-report regression gate (see README
   "Observability").

     cr_report diff [--timing-tolerance F] [--ignore-timings] [--markdown]
                    baseline.json current.json
     cr_report check [--epsilon F] report.json...

   `diff` compares two BENCH_*.json reports field by field: fields under
   "metrics" are deterministic and must match exactly; fields under
   "timings" are wall-clock and only fail beyond the relative tolerance
   (default +50%; --ignore-timings drops them, the right mode against a
   committed baseline from another host). `check` validates reports
   against the paper's bound formulas (stretch ceilings, optimal label
   size, table-bit growth, un-exercised fallback); it skips a run's
   BENCH_manifest.json, so `check DIR/BENCH_*.json` checks every report.

   Exit codes: 0 clean, 1 regression / bound violation, 2 usage errors
   and files that cannot be read or parsed. *)

open Cr_report_lib

let usage =
  "usage: cr_report diff [--timing-tolerance F] [--ignore-timings] \
   [--markdown] BASELINE CURRENT\n\
  \       cr_report check [--epsilon F] REPORT..."

let die_usage () =
  prerr_endline usage;
  exit 2

let parse_json path =
  match Json.parse_file path with
  | Ok j -> j
  | Error msg ->
    Printf.eprintf "cr_report: %s\n" msg;
    exit 2

let float_flag name v =
  match float_of_string_opt v with
  | Some f when f > 0.0 -> f
  | _ ->
    Printf.eprintf "cr_report: %s expects a positive float, got %S\n" name v;
    exit 2

let run_diff args =
  let tolerance = ref 0.5 in
  let ignore_timings = ref false in
  let markdown = ref false in
  let rec parse paths = function
    | [] -> List.rev paths
    | "--timing-tolerance" :: v :: rest ->
      tolerance := float_flag "--timing-tolerance" v;
      parse paths rest
    | [ "--timing-tolerance" ] -> die_usage ()
    | "--ignore-timings" :: rest ->
      ignore_timings := true;
      parse paths rest
    | "--markdown" :: rest ->
      markdown := true;
      parse paths rest
    | p :: rest -> parse (p :: paths) rest
  in
  match parse [] args with
  | [ baseline_path; current_path ] ->
    let baseline = parse_json baseline_path in
    let current = parse_json current_path in
    let findings =
      Diff.diff_reports ~timing_tolerance:!tolerance
        ~ignore_timings:!ignore_timings baseline current
    in
    print_string
      (if !markdown then Diff.render_markdown findings
       else Diff.render_human findings);
    let regressions =
      List.length
        (List.filter (fun f -> f.Diff.severity = Diff.Regression) findings)
    in
    Printf.eprintf "cr_report: %s vs %s: %d finding%s (%d regression%s)\n"
      baseline_path current_path (List.length findings)
      (if List.length findings = 1 then "" else "s")
      regressions
      (if regressions = 1 then "" else "s");
    exit (if Diff.has_regression findings then 1 else 0)
  | _ -> die_usage ()

let run_check args =
  let epsilon = ref 0.5 in
  let rec parse paths = function
    | [] -> List.rev paths
    | "--epsilon" :: v :: rest ->
      epsilon := float_flag "--epsilon" v;
      parse paths rest
    | [ "--epsilon" ] -> die_usage ()
    | p :: rest -> parse (p :: paths) rest
  in
  match parse [] args with
  | [] -> die_usage ()
  | paths ->
    let bad = ref 0 and skipped = ref 0 in
    List.iter
      (fun path ->
        let report = parse_json path in
        if Check.is_manifest report then begin
          Printf.printf "== %s ==\nskipped: a run manifest, not a report\n"
            path;
          incr skipped
        end
        else begin
          let findings = Check.check_report ~epsilon:!epsilon report in
          Printf.printf "== %s ==\n%s" path (Check.render_human findings);
          if not (Check.all_ok findings) then incr bad
        end)
      paths;
    let checked = List.length paths - !skipped in
    Printf.eprintf
      "cr_report: checked %d report%s, %d with violations, %d manifest%s \
       skipped\n"
      checked
      (if checked = 1 then "" else "s")
      !bad !skipped
      (if !skipped = 1 then "" else "s");
    exit (if !bad > 0 then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "diff" :: args -> run_diff args
  | _ :: "check" :: args -> run_check args
  | _ -> die_usage ()
