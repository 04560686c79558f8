(* E1 — empirical analog of Table 1: name-independent schemes.
   For every network family, measure stretch (max/avg/p99), per-node table
   bits (max/avg), and header bits, for the paper's two name-independent
   schemes and the two baseline endpoints. *)

open Common
module Stats = Cr_sim.Stats
module Scheme = Cr_sim.Scheme
module Metric = Cr_metric.Metric

let run () =
  print_header
    "E1 (Table 1): name-independent routing schemes (eps = 0.5, random naming)"
    [ "family"; "scheme"; "max-st"; "avg-st"; "p99-st";
      "table bits max/avg"; "hdr bits" ];
  List.iter
    (fun inst ->
      let n = Metric.n inst.metric in
      let naming = naming_of inst in
      let pairs = pairs_of inst in
      let schemes =
        List.map
          (Scheme.with_name_directory inst.metric naming)
          [ Cr_baselines.Full_table.labeled inst.metric;
            Cr_baselines.Spanning_tree.labeled inst.metric ~root:0;
            Cr_baselines.Landmark.labeled inst.metric ~seed:3 ]
        @ [ Cr_core.Simple_ni.to_scheme
              (simple_ni inst ~epsilon:default_epsilon ~naming);
            Cr_core.Scale_free_ni.to_scheme
              (scale_free_ni inst ~epsilon:default_epsilon ~naming) ]
      in
      List.iter
        (fun (s : Scheme.name_independent) ->
          let summary = measure_name_independent inst s naming pairs in
          print_row
            ([ cell "%-12s" inst.name; cell "%-34s" s.Scheme.ni_name ]
            @ stretch_cells summary
            @ [ bits_cell (Scheme.ni_max_table_bits s n)
                  (Scheme.ni_avg_table_bits s n);
                cell "%5d" s.Scheme.ni_header_bits ]))
        schemes)
    (families ());
  print_newline ();
  print_endline
    "Paper shape: both Thm 1.4 and Thm 1.1 rows must stay below the 9+O(eps)";
  print_endline
    "stretch ceiling with polylog tables; full-table is stretch 1 at Theta(n log n)";
  print_endline
    "bits; spanning-tree is compact but with workload-dependent stretch."
