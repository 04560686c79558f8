(* Quickstart: build a network, preprocess both of the paper's scale-free
   schemes, and route a few packets.

     dune exec examples/quickstart.exe

   Walkthrough of the public API:
   1. make a weighted graph (Cr_graphgen or Cr_metric.Graph directly);
   2. take its shortest-path metric (Cr_metric.Metric.of_graph);
   3. build the net hierarchy and netting tree (Cr_nets);
   4. build a scheme from cr_core and route with a Walker. *)

module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload
module Sfl = Cr_core.Scale_free_labeled
module Sfni = Cr_core.Scale_free_ni
module Ni_scheme = Cr_core.Ni_scheme

let () =
  (* 1-2: a 12x12 grid with 25% of the nodes knocked out - doubling, but
     not growth-bounded. *)
  let graph = Cr_graphgen.Grid.with_holes ~side:12 ~hole_fraction:0.25 ~seed:7 in
  let metric = Metric.of_graph graph in
  let n = Metric.n metric in
  Printf.printf "network: %d nodes, %d edges, diameter %.0f\n" n
    (Graph.num_edges graph)
    (Metric.diameter metric);

  (* 3: the shared hierarchical structures. *)
  let nt = Netting_tree.build (Hierarchy.build metric) in

  (* 4a: the (1+eps)-stretch labeled scheme of Theorem 1.2. *)
  let labeled = Sfl.build nt ~epsilon:0.5 in
  let src = 0 and dst = n - 1 in
  let w = Walker.create metric ~start:src ~max_hops:100_000 in
  Sfl.walk labeled w ~dest_label:(Sfl.label labeled dst);
  Printf.printf
    "labeled route %d -> %d: cost %.1f over distance %.1f (stretch %.3f)\n"
    src dst (Walker.cost w)
    (Metric.dist metric src dst)
    (Walker.cost w /. Metric.dist metric src dst);

  (* 4b: the (9+eps)-stretch name-independent scheme of Theorem 1.1 -
     nodes keep their arbitrary original names, here a random permutation. *)
  let naming = Workload.random_naming ~n ~seed:42 in
  let ni =
    Sfni.build nt ~epsilon:0.5 ~naming ~underlying:(Sfl.to_underlying labeled)
  in
  let dest_name = naming.Workload.name_of.(dst) in
  let w = Walker.create metric ~start:src ~max_hops:1_000_000 in
  Ni_scheme.walk (Sfni.scheme ni) w ~dest_name;
  Printf.printf
    "name-independent route %d -> name %d: cost %.1f (stretch %.3f)\n" src
    dest_name (Walker.cost w)
    (Walker.cost w /. Metric.dist metric src dst);

  (* storage accounting: the quantities the paper's tables bound *)
  let max_bits table =
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (table v)
    done;
    !best
  in
  Printf.printf "labeled tables: max %d bits/node; labels %d bits\n"
    (max_bits (Sfl.table_bits labeled))
    (Sfl.label_bits labeled);
  Printf.printf "name-independent tables: max %d bits/node\n"
    (max_bits (Ni_scheme.table_bits (Sfni.scheme ni)))
