(* E8 — storage scaling: per-node table bits of all four schemes as n grows
   on random geometric graphs, normalized by log^3 n (Lemmas 3.3, 3.8 and
   4.4 predict polylog growth; full tables would grow as n log n). *)

open Common
module Metric = Cr_metric.Metric
module Scheme = Cr_sim.Scheme

let run () =
  print_header
    "E8 (storage scaling): max table bits on geo graphs (eps = 0.5)"
    [ "n"; "hier-lab"; "/log^3"; "sf-lab"; "/log^3"; "simple-NI"; "/log^3";
      "sf-NI"; "/log^3"; "full-table" ];
  List.iter
    (fun n ->
      let inst =
        instance (Printf.sprintf "geo-%d" n)
          (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed:23)
      in
      let naming = naming_of inst in
      let log3 = Float.pow (Float.log2 (float_of_int n)) 3.0 in
      let hl =
        Scheme.max_table_bits
          (Cr_core.Hier_labeled.to_underlying (hier_labeled inst ~epsilon:default_epsilon))
          n
      in
      let sfl =
        Scheme.max_table_bits
          (Cr_core.Scale_free_labeled.to_underlying
             (scale_free_labeled inst ~epsilon:default_epsilon))
          n
      in
      let sni =
        Scheme.ni_max_table_bits
          (Cr_core.Simple_ni.to_scheme
             (simple_ni inst ~epsilon:default_epsilon ~naming))
          n
      in
      let sfni =
        Scheme.ni_max_table_bits
          (Cr_core.Scale_free_ni.to_scheme
             (scale_free_ni inst ~epsilon:default_epsilon ~naming))
          n
      in
      let full = (n - 1) * Cr_metric.Bits.id_bits n in
      let norm b = cell "%6.1f" (float_of_int b /. log3) in
      print_row
        [ cell "%4d" n;
          cell "%8d" hl; norm hl;
          cell "%8d" sfl; norm sfl;
          cell "%8d" sni; norm sni;
          cell "%8d" sfni; norm sfni;
          cell "%8d" full ])
    [ 32; 64; 128; 256; 512 ];
  print_newline ();
  print_endline
    "Paper shape: the /log^3 columns flatten (polylog storage) while the";
  print_endline "full-table column grows as Theta(n log n)."
