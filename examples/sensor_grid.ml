(* Sensor-field routing on a grid with obstacles.

     dune exec examples/sensor_grid.exe

   A deployed sensor field is the textbook doubling-but-not-growth-bounded
   network: a 2-D grid with regions knocked out by terrain. This example
   compares the deliverable operating points on one field:

   - full shortest-path tables (ideal paths, Theta(n log n) bits per node -
     unaffordable on sensors);
   - a single spanning tree (tiny tables, but congests the root and takes
     long detours);
   - the paper's labeled scheme (Theorem 1.2) and name-independent scheme
     (Theorem 1.1): polylog bits, near-ideal paths.

   It also runs a convergecast: every sensor reports to a sink, measuring
   total traffic. *)

module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Sfl = Cr_core.Scale_free_labeled
module Sfni = Cr_core.Scale_free_ni

let () =
  let graph =
    Cr_graphgen.Grid.with_holes ~side:14 ~hole_fraction:0.3 ~seed:99
  in
  let metric = Metric.of_graph graph in
  let n = Metric.n metric in
  Printf.printf "sensor field: %d reachable sensors (14x14 grid, 30%% holes)\n\n"
    n;
  let nt = Netting_tree.build (Hierarchy.build metric) in
  let labeled = Sfl.build nt ~epsilon:0.5 in
  let naming = Workload.random_naming ~n ~seed:5 in
  let ni =
    Sfni.build nt ~epsilon:0.5 ~naming ~underlying:(Sfl.to_underlying labeled)
  in
  let pairs = Workload.pairs_for ~n ~seed:3 ~budget:3_000 in

  Printf.printf "%-26s %-9s %-9s %-12s\n" "scheme" "max-str" "avg-str"
    "bits/node max";
  let report_labeled (s : Scheme.labeled) =
    let summary = Stats.measure_labeled metric s pairs in
    Printf.printf "%-26s %9.3f %9.3f %12d\n" s.Scheme.l_name
      summary.Stats.max_stretch summary.Stats.avg_stretch
      (Scheme.max_table_bits s n)
  in
  let report_ni (s : Scheme.name_independent) =
    let summary = Stats.measure_name_independent metric s naming pairs in
    Printf.printf "%-26s %9.3f %9.3f %12d\n" s.Scheme.ni_name
      summary.Stats.max_stretch summary.Stats.avg_stretch
      (Scheme.ni_max_table_bits s n)
  in
  report_labeled (Cr_baselines.Full_table.labeled metric);
  report_labeled (Cr_baselines.Spanning_tree.labeled metric ~root:0);
  report_labeled (Sfl.to_underlying labeled);
  report_ni (Sfni.to_scheme ni);

  (* Convergecast: all sensors report one reading to the sink. *)
  let sink = 0 in
  let total scheme_route =
    List.fold_left
      (fun acc v ->
        if v = sink then acc
        else
          let (o : Scheme.outcome) = scheme_route v in
          acc +. o.Scheme.cost)
      0.0
      (List.init n Fun.id)
  in
  let sfl_scheme = Sfl.to_underlying labeled in
  let ideal = total (fun v ->
      { Scheme.cost = Metric.dist metric v sink; hops = 0 }) in
  let with_labeled =
    total (fun v -> Scheme.route_labeled metric sfl_scheme ~src:v ~dst:sink)
  in
  let st = Cr_baselines.Spanning_tree.labeled metric ~root:(n / 2) in
  let with_tree = total (fun v -> Scheme.route_labeled metric st ~src:v ~dst:sink) in
  Printf.printf
    "\nconvergecast to sink %d: ideal %.0f, Thm 1.2 %.0f (+%.1f%%), \
     spanning tree %.0f (+%.1f%%)\n"
    sink ideal with_labeled
    (100.0 *. ((with_labeled /. ideal) -. 1.0))
    with_tree
    (100.0 *. ((with_tree /. ideal) -. 1.0))
