(* E16 — Figures 1 and 2 as machine-readable event logs.

   For the grid-10x10 and geo-128 families, capture phase-tagged traces of
   name-independent (Algorithm 3, Figure 1) and scale-free labeled
   (Algorithm 5, Figure 2) routes, write them as JSONL and Chrome
   trace_event files under trace_out/, and print the per-phase
   stretch-contribution table. Every hop carries a phase tag, and the
   per-phase sums are checked against the walker's total cost. *)

open Common
module Metric = Cr_metric.Metric
module Trace = Cr_obs.Trace
module Metrics = Cr_obs.Metrics
module Route_trace = Cr_core.Route_trace

let out_dir = "trace_out"

let write_file name contents =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let phase_key p =
  match Trace.phase_level p with
  | Some l -> Printf.sprintf "%s[%d]" (Trace.phase_label p) l
  | None -> Trace.phase_label p

(* Aggregate phase costs across a batch of routes, first-appearance order. *)
let batch_phase_costs routes =
  let order = ref [] and sums = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (p, c) ->
          match Hashtbl.find_opt sums p with
          | Some s -> Hashtbl.replace sums p (s +. c)
          | None ->
            order := p :: !order;
            Hashtbl.add sums p c)
        (Route_trace.phase_costs r))
    routes;
  List.rev_map (fun p -> (p, Hashtbl.find sums p)) !order

let check_phase_sums routes =
  List.for_all
    (fun (r : Route_trace.t) ->
      Float.abs (Route_trace.phase_cost_total r -. r.cost)
      <= 1e-6 *. Float.max 1.0 r.cost
      && Route_trace.unphased_hops r = 0)
    routes

(* Under --report: fold the batch's event stream into a Metrics registry
   through the Trace.sink adapter — per-phase hop and cost counters, the
   hop-cost histogram — and record it as this family's row, together with
   the headline fallback count (EXPERIMENTS.md asserts it stays 0 on the
   fast-path figures). *)
let record_registry family figure routes =
  let reg = Metrics.create () in
  let sink = Metrics.sink reg in
  List.iter
    (fun (r : Route_trace.t) -> List.iter sink.Trace.emit r.Route_trace.events)
    routes;
  let fallback_count =
    match Metrics.find reg "route.hops.fallback" with
    | Some (Metrics.Counter v) -> int_of_float v
    | _ -> 0
  in
  record ~family ~scheme:figure
    (Report.of_snapshot (Metrics.snapshot reg)
    @ [ ("routes", Report.Int (List.length routes));
        ("fallback_count", Report.Int fallback_count) ])

let report family figure routes =
  let total_cost =
    List.fold_left (fun acc (r : Route_trace.t) -> acc +. r.cost) 0.0 routes
  in
  let total_dist =
    List.fold_left
      (fun acc (r : Route_trace.t) -> acc +. r.distance)
      0.0 routes
  in
  List.iter
    (fun (p, c) ->
      print_row
        [ cell "%-12s" family; cell "%-5s" figure; cell "%-14s" (phase_key p);
          cell "%9.2f" c;
          cell "%5.1f%%" (100.0 *. c /. total_cost);
          cell "%6.3f" (c /. total_dist) ])
    (batch_phase_costs routes);
  Printf.printf
    "   %s %s: %d routes, phase sums %s Walker.cost (aggregate stretch %.3f)\n"
    family figure (List.length routes)
    (if check_phase_sums routes then "reproduce" else "MISMATCH vs")
    (total_cost /. total_dist)

let run_family inst =
  let naming = naming_of inst in
  let pairs =
    match inst.name with
    (* On uniformly dense families the ring phase alone delivers; the
       expo chain is the showcase for the packing phase, and these
       pairs are known to exit to it. *)
    | "expo-chain-32" -> [ (7, 23); (1, 11); (4, 19); (5, 18) ]
    | _ -> Route_trace.sample_pairs inst.metric ~count:6 ~seed:17
  in
  let fig1 =
    Route_trace.fig1_simple_ni inst.nt ~epsilon:default_epsilon ~naming ~pairs
  in
  let fig2 =
    Route_trace.fig2_scale_free_labeled inst.nt ~epsilon:default_epsilon
      ~pairs
  in
  let files =
    [ write_file (inst.name ^ ".fig1.jsonl") (Route_trace.to_jsonl fig1);
      write_file (inst.name ^ ".fig1.chrome.json")
        (Route_trace.to_chrome fig1);
      write_file (inst.name ^ ".fig2.jsonl") (Route_trace.to_jsonl fig2);
      write_file (inst.name ^ ".fig2.chrome.json")
        (Route_trace.to_chrome fig2) ]
  in
  report inst.name "fig1" fig1;
  report inst.name "fig2" fig2;
  record_registry inst.name "fig1" fig1;
  record_registry inst.name "fig2" fig2;
  Printf.printf "   wrote %s\n" (String.concat ", " files)

let run () =
  print_header
    "E16 (Figures 1-2 as event logs): per-phase stretch contribution"
    [ "family"; "fig"; "phase"; "cost"; "share"; "stretch-contrib" ];
  List.iter run_family
    [ instance "grid-10x10" (Cr_graphgen.Grid.square ~side:10);
      instance "geo-128" (Cr_graphgen.Geometric.knn ~n:128 ~k:3 ~seed:11);
      instance "expo-chain-32"
        (Cr_graphgen.Path_like.exponential_chain ~n:32 ~base:2.0) ];
  print_newline ();
  print_endline
    "Every hop of every route carries a phase tag; per-phase costs sum to";
  print_endline
    "the walker's total. Load the .chrome.json files in chrome://tracing";
  print_endline "(or Perfetto) to see each route as a phase-blocked lane."
