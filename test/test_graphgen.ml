(* Tests for the network generators and the PRNG. *)

open Helpers
module Graph = Cr_metric.Graph
module Rng = Cr_graphgen.Rng
module Grid = Cr_graphgen.Grid
module Geometric = Cr_graphgen.Geometric
module Path_like = Cr_graphgen.Path_like
module Tree_gen = Cr_graphgen.Tree_gen
module Hypercube = Cr_graphgen.Hypercube
module Component = Cr_graphgen.Component

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 50 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let x = Rng.int rng 17 in
    check_bool "int in range" true (x >= 0 && x < 17);
    let f = Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_permutation () =
  let rng = Rng.create 5 in
  let p = Rng.permutation rng 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 30 Fun.id) sorted

let test_grid () =
  let g = Grid.square ~side:5 in
  check_int "nodes" 25 (Graph.n g);
  check_int "edges" 40 (Graph.num_edges g);
  check_bool "connected" true (Graph.is_connected g)

let test_grid_with_holes () =
  let g = Grid.with_holes ~side:10 ~hole_fraction:0.3 ~seed:3 in
  check_bool "connected" true (Graph.is_connected g);
  check_bool "smaller than full grid" true (Graph.n g < 100);
  check_bool "not empty" true (Graph.n g > 20)

let test_geometric_knn () =
  let g = Geometric.knn ~n:40 ~k:3 ~seed:5 in
  check_int "nodes" 40 (Graph.n g);
  check_bool "connected" true (Graph.is_connected g);
  check_bool "positive weights" true
    (List.for_all (fun (e : Graph.edge) -> e.w > 0.0) (Graph.edges g))

let test_geometric_clustered () =
  let g = Geometric.clustered ~clusters:4 ~per_cluster:10 ~spread:0.03 ~k:2 ~seed:7 in
  check_int "nodes" 40 (Graph.n g);
  check_bool "connected" true (Graph.is_connected g)

let test_path_like () =
  let r = Path_like.ring ~n:10 in
  check_int "ring edges" 10 (Graph.num_edges r);
  let p = Path_like.path ~n:10 in
  check_int "path edges" 9 (Graph.num_edges p);
  let e = Path_like.exponential_chain ~n:5 ~base:2.0 in
  check_float "expo weight" 8.0 (Option.get (Graph.edge_weight e 3 4));
  let s = Path_like.star ~leaves:7 in
  check_int "star nodes" 8 (Graph.n s);
  check_int "star center degree" 7 (Graph.degree s 0)

let test_tree_gen () =
  let t = Tree_gen.random_attachment ~n:50 ~max_degree:4 ~seed:9 in
  check_int "tree edges" 49 (Graph.num_edges t);
  check_bool "degree bound" true (Graph.max_degree t <= 4);
  check_bool "connected" true (Graph.is_connected t)

let test_hypercube () =
  let g = Hypercube.cube ~dim:4 in
  check_int "nodes" 16 (Graph.n g);
  check_int "edges" 32 (Graph.num_edges g);
  for v = 0 to 15 do
    check_int "regular degree" 4 (Graph.degree g v)
  done

let test_component () =
  let g = graph_of_edges 6 [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) ] in
  let big = Component.largest g in
  check_int "largest component" 3 (Graph.n big);
  let ind = Component.induced g [ 3; 4; 5 ] in
  check_int "induced nodes" 3 (Graph.n ind);
  check_int "induced edges" 1 (Graph.num_edges ind)

let prop_knn_always_connected =
  qcheck_case ~count:30 "geometric knn always connected"
    QCheck2.Gen.(
      let* n = int_range 4 60 in
      let* seed = int_range 0 10_000 in
      return (n, seed))
    (fun (n, seed) ->
      let g = Geometric.knn ~n ~k:2 ~seed in
      Graph.n g = n && Graph.is_connected g)

let prop_random_tree_is_tree =
  qcheck_case ~count:30 "random attachment yields a tree"
    QCheck2.Gen.(
      let* n = int_range 2 80 in
      let* seed = int_range 0 10_000 in
      return (n, seed))
    (fun (n, seed) ->
      let g = Tree_gen.random_attachment ~n ~max_degree:3 ~seed in
      Graph.num_edges g = n - 1 && Graph.is_connected g)

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "grid with holes" `Quick test_grid_with_holes;
    Alcotest.test_case "geometric knn" `Quick test_geometric_knn;
    Alcotest.test_case "geometric clustered" `Quick test_geometric_clustered;
    Alcotest.test_case "path-like" `Quick test_path_like;
    Alcotest.test_case "tree generators" `Quick test_tree_gen;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "components" `Quick test_component;
    prop_knn_always_connected;
    prop_random_tree_is_tree ]
