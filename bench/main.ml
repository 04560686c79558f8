(* Experiment harness: regenerates the empirical analog of every table and
   figure in the paper (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- e5 e7           # selected experiments
     dune exec bench/main.exe -- --report out e1 # + BENCH_e1.json under out/

   With --report DIR, every experiment additionally writes its headline
   numbers as a schema-versioned BENCH_<experiment>.json under DIR, plus
   one BENCH_manifest.json for the whole run (seeds, CR_DOMAINS, git rev,
   host). Diff two runs with tools/report's cr_report. *)

module Report = Cr_sim.Report

let experiments =
  [ ("e1", "Table 1: name-independent schemes", Exp_table1.run);
    ("e2", "Table 2: labeled schemes", Exp_table2.run);
    ("e5", "Figure 3 + Theorem 1.3: lower bound", Exp_lowerbound.run);
    ("e6", "scale-freeness ablation", Exp_scalefree.run);
    ("e7", "stretch vs epsilon", Exp_epsilon.run);
    ("e8", "storage scaling", Exp_scaling.run);
    ("e9", "distributed preprocessing", Exp_distributed.run);
    ("e13", "stability under failure", Exp_stability.run);
    ("e14", "replicated objects", Exp_replicas.run);
    ("e15", "relaxed guarantees", Exp_relaxed.run);
    ("trace", "Figures 1-2 as machine-readable phase traces", Exp_trace.run);
    ("e18", "fault injection: reliability overhead + degraded routing",
     Exp_faults.run);
    ("e19", "CONGEST cost: rounds / messages / bits / congestion",
     Exp_cost.run);
    ("e20", "route serving: compiled tables, served = walked", Exp_serve.run);
    ("e21", "brownout: Zipf traffic under failures, live telemetry",
     Exp_brownout.run);
    ("e22", "scale: sampled-pair stretch past the APSP wall (10^4..10^5 nodes)",
     Exp_scale.run) ]

let usage = "usage: main.exe [--report DIR] [EXPERIMENT...]"

let mkdir_p dir =
  let rec go dir =
    if not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
    end
  in
  if dir <> "" then go dir

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Best-effort provenance for the manifest; never fails the run. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> "unknown")
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let write_manifest dir keys =
  write_file
    (Filename.concat dir "BENCH_manifest.json")
    (Report.manifest_json
       ~cr_domains:(Cr_par.Pool.domains (Common.pool ()))
       ~git_rev:(git_rev ())
       ~host:(Unix.gethostname ())
       ~seeds:
         [ ("naming", 42); ("pairs", 17); ("holey", 7); ("geo", 11);
           ("landmark", 3); ("zipf", 47) ]
       ~experiments:keys)

(* The self-diagnosing unknown-experiment error: every registered key with
   its title, so a --report typo tells the reader exactly what the harness
   knows how to run. *)
let list_registered () =
  String.concat "\n"
    (List.map
       (fun (k, title, _) -> Printf.sprintf "  %-18s %s" k title)
       experiments)

let () =
  let rec parse report keys = function
    | [] -> (report, List.rev keys)
    | "--report" :: dir :: rest -> parse (Some dir) keys rest
    | [ "--report" ] ->
      prerr_endline usage;
      exit 2
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
      Printf.eprintf "unknown option %S\n%s\n" flag usage;
      exit 2
    | key :: rest -> parse report (key :: keys) rest
  in
  let report_dir, requested =
    parse None [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match requested with
    | [] -> List.map (fun (k, _, _) -> k) experiments
    | keys -> keys
  in
  Option.iter mkdir_p report_dir;
  List.iter
    (fun key ->
      match List.find_opt (fun (k, _, _) -> k = key) experiments with
      | Some (_, title, run) ->
        Printf.printf "\n###### %s — %s\n" key title;
        if report_dir <> None then Common.begin_experiment key;
        run ();
        Option.iter
          (fun dir ->
            match Common.finish_experiment () with
            | Some r ->
              write_file
                (Filename.concat dir ("BENCH_" ^ key ^ ".json"))
                (Report.to_json r)
            | None -> ())
          report_dir
      | None ->
        Printf.eprintf
          "unknown experiment %S; registered experiments:\n%s\n"
          key (list_registered ());
        exit 1)
    requested;
  Option.iter (fun dir -> write_manifest dir requested) report_dir
