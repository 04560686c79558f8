(* E2 — empirical analog of Table 2: (1 + eps)-stretch labeled schemes.
   Measures stretch, table bits, label bits, and header bits for the
   hierarchical (Lemma 3.1-style) scheme, the scale-free Theorem 1.2
   scheme, and the two labeled baselines. *)

open Common
module Stats = Cr_sim.Stats
module Scheme = Cr_sim.Scheme
module Metric = Cr_metric.Metric

let run () =
  print_header
    "E2 (Table 2): labeled routing schemes (eps = 0.5)"
    [ "family"; "scheme"; "max-st"; "avg-st"; "p99-st";
      "table bits max/avg"; "label"; "hdr" ];
  List.iter
    (fun inst ->
      let n = Metric.n inst.metric in
      let pairs = pairs_of inst in
      let schemes =
        [ Cr_baselines.Full_table.labeled inst.metric;
          Cr_baselines.Spanning_tree.labeled inst.metric ~root:0;
          Cr_baselines.Landmark.labeled inst.metric ~seed:3;
          Cr_core.Hier_labeled.to_underlying
            (hier_labeled inst ~epsilon:default_epsilon);
          Cr_core.Scale_free_labeled.to_underlying
            (scale_free_labeled inst ~epsilon:default_epsilon) ]
      in
      List.iter
        (fun (s : Scheme.labeled) ->
          let summary = measure_labeled inst s pairs in
          print_row
            ([ cell "%-12s" inst.name; cell "%-28s" s.Scheme.l_name ]
            @ stretch_cells summary
            @ [ bits_cell (Scheme.max_table_bits s n) (Scheme.avg_table_bits s n);
                cell "%3d" s.Scheme.l_label_bits;
                cell "%3d" s.Scheme.l_header_bits ]))
        schemes)
    (families ());
  print_newline ();
  print_endline
    "Paper shape: both labeled schemes hold stretch 1+O(eps) with ceil(log n)-bit";
  print_endline
    "labels; Thm 1.2 matches the hierarchical scheme's stretch while its tables";
  print_endline "do not carry the log Delta factor (see E6 for the sweep)."
