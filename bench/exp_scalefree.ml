(* E6 — the scale-freeness ablation: per-node storage as the normalized
   diameter Delta grows with n fixed. Chains of 48 nodes whose edge weights
   grow geometrically push Delta from 47 to ~10^28; the Theorem 1.4 /
   Lemma 3.1 structures must grow linearly in log Delta while the
   Theorem 1.1 / 1.2 structures stay flat. *)

open Common
module Metric = Cr_metric.Metric
module Scheme = Cr_sim.Scheme

let chain base =
  if Float.equal base 1.0 then Cr_graphgen.Path_like.path ~n:48
  else Cr_graphgen.Path_like.exponential_chain ~n:48 ~base

let run () =
  print_header
    "E6 (scale-freeness): max table bits vs Delta on 48-node chains"
    [ "base"; "Delta"; "log2 D"; "hier-lab"; "sf-lab (1.2)"; "simple-NI (1.4)";
      "sf-NI (1.1)" ];
  List.iter
    (fun base ->
      let inst = instance (Printf.sprintf "chain-%.1f" base) (chain base) in
      let n = Metric.n inst.metric in
      let naming = naming_of inst in
      let hl =
        Cr_core.Hier_labeled.to_underlying (hier_labeled inst ~epsilon:default_epsilon)
      in
      let sfl =
        Cr_core.Scale_free_labeled.to_underlying
          (scale_free_labeled inst ~epsilon:default_epsilon)
      in
      let sni =
        Cr_core.Simple_ni.to_scheme
          (simple_ni inst ~epsilon:default_epsilon ~naming)
      in
      let sfni =
        Cr_core.Scale_free_ni.to_scheme
          (scale_free_ni inst ~epsilon:default_epsilon ~naming)
      in
      print_row
        [ cell "%4.1f" base;
          cell "%10.3g" (Metric.normalized_diameter inst.metric);
          cell "%6.1f" (Float.log2 (Metric.normalized_diameter inst.metric));
          cell "%8d" (Scheme.max_table_bits hl n);
          cell "%8d" (Scheme.max_table_bits sfl n);
          cell "%8d" (Scheme.ni_max_table_bits sni n);
          cell "%8d" (Scheme.ni_max_table_bits sfni n) ])
    [ 1.0; 1.3; 1.6; 2.0; 3.0 ];
  print_newline ();
  print_endline
    "Paper shape: the two non-scale-free columns grow ~linearly with log Delta";
  print_endline
    "(their structures keep one layer per net level); the Thm 1.1/1.2 columns";
  print_endline "stay within a constant factor across the whole sweep."
