(* E17 — parallel scaling (`parallel-scaling`): construction + evaluation
   wall time of the thousand-node families at domains in {1, 2, 4, 8}.

   Every stage fans out over a Cr_par.Pool of the given size; outputs are
   pool-size independent (verified here against the 1-domain run, and by
   the property suite in test/test_parallel.ml), so the only thing that
   changes with the domain count is the wall clock. Timings are
   best-of-two to damp allocator/GC warm-up noise; absolute numbers are
   host-dependent (a single-core container shows speedup ~1.0 throughout —
   the scaling column is only meaningful on multicore hardware). *)

open Common
module Pool = Cr_par.Pool
module Hier = Cr_core.Hier_labeled

let domain_counts = [ 1; 2; 4; 8 ]
let eval_pairs_budget = 2_000

let now () = Cr_obs.Trace.wall_clock ()

let timed f =
  let best = ref infinity and result = ref None in
  for _ = 1 to 2 do
    let t0 = now () in
    let r = f () in
    best := Float.min !best (now () -. t0);
    result := Some r
  done;
  (Option.get !result, !best)

type row = {
  stage : string;
  times : (int * float) list;  (* domain count -> seconds *)
}

let speedup_cell times =
  match (List.assoc_opt 1 times, List.assoc_opt 4 times) with
  | Some t1, Some t4 when t4 > 0.0 -> cell "%5.2fx" (t1 /. t4)
  | _ -> "    -"

let print_rows family rows =
  List.iter
    (fun { stage; times } ->
      print_row
        ([ cell "%-10s" family; cell "%-18s" stage ]
        @ List.map (fun d -> cell "%8.3f" (List.assoc d times)) domain_counts
        @ [ speedup_cell times ]))
    rows

let run () =
  print_header
    "E17: parallel scaling (wall seconds per stage; speedup = d1/d4)"
    ([ "family"; "stage" ]
    @ List.map (fun d -> Printf.sprintf "d=%d" d) domain_counts
    @ [ "spdup" ]);
  List.iter
    (fun (family, graph_of) ->
      let graph = graph_of () in
      let per_domain =
        List.map
          (fun d ->
            let pool = Pool.create ~domains:d () in
            let metric, t_metric = timed (fun () -> Metric.of_graph ~pool graph) in
            let nt = Netting_tree.build (Hierarchy.build metric) in
            let hier, t_build =
              timed (fun () ->
                  Hier.build ~pool nt ~epsilon:default_epsilon)
            in
            let scheme = Hier.to_underlying hier in
            let pairs =
              Workload.pairs_for ~n:(Metric.n metric) ~seed:17
                ~budget:eval_pairs_budget
            in
            let summary, t_eval =
              timed (fun () -> Stats.measure_labeled ~pool metric scheme pairs)
            in
            (d, t_metric, t_build, t_eval, summary))
          domain_counts
      in
      (* Determinism spot-check: every domain count must produce the same
         stretch summary as the 1-domain run. *)
      let _, _, _, _, reference = List.hd per_domain in
      List.iter
        (fun (d, _, _, _, summary) ->
          if summary <> reference then
            failwith
              (Printf.sprintf
                 "E17: %s stats diverge between 1 and %d domains" family d))
        per_domain;
      let times sel = List.map (fun (d, a, b, c, _) -> (d, sel a b c)) per_domain in
      (* Report row: the (pool-size-invariant) reference summary as
         deterministic metrics, the par.* per-stage / per-domain-count
         wall times as threshold-class timings. *)
      record ~family ~scheme:"parallel-stages"
        ~timings:
          (List.concat_map
             (fun (stage, sel) ->
               List.map
                 (fun (d, t) -> (Printf.sprintf "par.%s.d%d" stage d, t))
                 (times sel))
             [ ("metric", fun a _ _ -> a);
               ("build", fun _ b _ -> b);
               ("eval", fun _ _ c -> c) ])
        (Report.of_summary reference);
      print_rows family
        [ { stage = "metric (APSP)"; times = times (fun a _ _ -> a) };
          { stage = "hier-labeled build"; times = times (fun _ b _ -> b) };
          { stage = "stretch eval"; times = times (fun _ _ c -> c) } ];
      Printf.printf "%-10s   stats identical across domain counts: yes\n"
        family)
    (large_family_graphs ());
  print_newline ();
  print_endline
    "Determinism: tables, distances, and summaries are pool-size invariant";
  print_endline
    "(asserted above and property-tested in test/test_parallel.ml); only wall";
  print_endline "time varies with CR_DOMAINS."
