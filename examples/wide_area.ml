(* Scale-free routing on a wide-area network with extreme weight spread.

     dune exec examples/wide_area.exe

   An internet-like topology mixes link costs from microseconds (same rack)
   to hundreds of milliseconds (intercontinental): the normalized diameter
   Delta is astronomically larger than n. Schemes whose tables carry a
   log Delta factor (Theorem 1.4, Lemma 3.1) pay for every level of the
   distance hierarchy even though most levels are empty; the scale-free
   schemes (Theorems 1.1/1.2) do not. This example builds a two-level
   topology - dense unit-cost "sites" joined by exponentially long
   backbone links - and prints the per-node storage of each scheme side by
   side, plus routing quality. *)

module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload

(* [sites] rings of [site_size] nodes each; ring i's gateway joins ring
   i+1's gateway by a backbone edge of weight [backbone_base]^(i+1). *)
let two_level ~sites ~site_size ~backbone_base =
  let n = sites * site_size in
  let g = Graph.create n in
  for s = 0 to sites - 1 do
    let base = s * site_size in
    for k = 0 to site_size - 1 do
      Graph.add_edge g (base + k) (base + ((k + 1) mod site_size)) 1.0
    done
  done;
  for s = 0 to sites - 2 do
    let w = Float.pow backbone_base (float_of_int (s + 1)) in
    Graph.add_edge g (s * site_size) ((s + 1) * site_size) w
  done;
  g

let () =
  let graph = two_level ~sites:6 ~site_size:12 ~backbone_base:16.0 in
  let metric = Metric.of_graph graph in
  let n = Metric.n metric in
  Printf.printf
    "wide-area network: %d nodes in 6 sites; Delta = %.3g (log2 = %.1f)\n\n" n
    (Metric.normalized_diameter metric)
    (Float.log2 (Metric.normalized_diameter metric));
  let nt = Netting_tree.build (Hierarchy.build metric) in
  let naming = Workload.random_naming ~n ~seed:8 in
  let pairs = Workload.pairs_for ~n ~seed:4 ~budget:3_000 in

  let hier = Cr_core.Hier_labeled.build nt ~epsilon:0.5 in
  let sfl = Cr_core.Scale_free_labeled.build nt ~epsilon:0.5 in
  let simple =
    Cr_core.Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Cr_core.Hier_labeled.to_underlying hier)
  in
  let sfni =
    Cr_core.Scale_free_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Cr_core.Scale_free_labeled.to_underlying sfl)
  in

  Printf.printf "%-34s %-12s %-9s %-9s\n" "scheme" "bits max"
    "max-str" "avg-str";
  let row_l name (s : Scheme.labeled) =
    let summary = Stats.measure_labeled metric s pairs in
    Printf.printf "%-34s %12d %9.3f %9.3f\n" name (Scheme.max_table_bits s n)
      summary.Stats.max_stretch summary.Stats.avg_stretch
  in
  let row_ni name (s : Scheme.name_independent) =
    let summary = Stats.measure_name_independent metric s naming pairs in
    Printf.printf "%-34s %12d %9.3f %9.3f\n" name
      (Scheme.ni_max_table_bits s n) summary.Stats.max_stretch
      summary.Stats.avg_stretch
  in
  row_l "labeled, log-Delta tables (L 3.1)"
    (Cr_core.Hier_labeled.to_underlying hier);
  row_l "labeled, scale-free (Thm 1.2)"
    (Cr_core.Scale_free_labeled.to_underlying sfl);
  row_ni "name-indep, log-Delta (Thm 1.4)"
    (Cr_core.Simple_ni.to_scheme simple);
  row_ni "name-indep, scale-free (Thm 1.1)"
    (Cr_core.Scale_free_ni.to_scheme sfni);
  Printf.printf
    "\nSame stretch either way - but the log-Delta rows pay for all %d net\n"
    (Metric.levels metric);
  Printf.printf
    "levels of the weight hierarchy, while the scale-free rows only index\n";
  Printf.printf "the ~log n scales at which nodes actually accumulate.\n"
