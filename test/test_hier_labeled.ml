(* Tests for the non-scale-free hierarchical labeled scheme (the Lemma 3.1
   stand-in): delivery, stretch, and storage sanity. *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Hier_labeled = Cr_core.Hier_labeled
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload

let build m ~epsilon =
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  Hier_labeled.build nt ~epsilon

let check_all_pairs_delivered m scheme =
  let s = Hier_labeled.to_underlying scheme in
  List.iter
    (fun (src, dst) ->
      let outcome = Scheme.route_labeled m s ~src ~dst in
      check_bool "cost at least distance" true
        (outcome.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (all_pairs (Metric.n m))

let test_delivery_grid () =
  let m = grid6 () in
  check_all_pairs_delivered m (build m ~epsilon:0.5)

let test_delivery_holey () =
  let m = holey () in
  check_all_pairs_delivered m (build m ~epsilon:0.5)

let test_delivery_expo () =
  let m = expo12 () in
  check_all_pairs_delivered m (build m ~epsilon:0.5)

let test_stretch_bound_grid () =
  let m = grid8 () in
  let s = Hier_labeled.to_underlying (build m ~epsilon:0.25) in
  let summary = Stats.measure_labeled m s (all_pairs (Metric.n m)) in
  (* Theory: 1 + O(eps). The O hides moderate constants; we assert a
     conservative envelope and record the real numbers in EXPERIMENTS.md. *)
  check_bool
    (Printf.sprintf "max stretch %.3f within envelope" summary.max_stretch)
    true
    (summary.max_stretch <= 2.0)

let test_smaller_epsilon_not_worse () =
  let m = geo48 () in
  let pairs = all_pairs (Metric.n m) in
  let tight = Stats.measure_labeled m (Hier_labeled.to_underlying (build m ~epsilon:0.1)) pairs in
  let loose = Stats.measure_labeled m (Hier_labeled.to_underlying (build m ~epsilon:0.9)) pairs in
  check_bool "eps=0.1 max stretch <= eps=0.9 + slack" true
    (tight.max_stretch <= loose.max_stretch +. 0.5)

let test_labels_compact () =
  let m = grid6 () in
  let s = Hier_labeled.to_underlying (build m ~epsilon:0.5) in
  check_int "label bits" 6 s.Scheme.l_label_bits;
  for v = 0 to Metric.n m - 1 do
    let l = s.Scheme.label v in
    check_bool "label in [0,n)" true (l >= 0 && l < Metric.n m)
  done

let test_storage_scales_sublinearly () =
  (* Tables are (1/eps)^O(alpha) log Delta log n bits: quadrupling n on a
     grid should grow them far slower than the Theta(n log n) of full
     shortest-path tables. *)
  let max_bits side =
    let m = Metric.of_graph (Cr_graphgen.Grid.square ~side) in
    let t = build m ~epsilon:0.5 in
    let best = ref 0 in
    for v = 0 to Metric.n m - 1 do
      best := max !best ((Hier_labeled.to_underlying t).Cr_sim.Scheme.l_table_bits v)
    done;
    float_of_int !best
  in
  let small = max_bits 6 and large = max_bits 12 in
  let full_ratio = (144.0 *. 8.0) /. (36.0 *. 6.0) in
  check_bool
    (Printf.sprintf "storage ratio %.2f below full-table ratio %.2f"
       (large /. small) full_ratio)
    true
    (large /. small < full_ratio)

let test_route_to_self_neighbors () =
  let m = grid6 () in
  let t = build m ~epsilon:0.5 in
  let s = Hier_labeled.to_underlying t in
  let o = Scheme.route_labeled m s ~src:0 ~dst:1 in
  check_float "adjacent route cost" 1.0 o.Scheme.cost;
  check_int "adjacent route hops" 1 o.Scheme.hops

let prop_random_geometric_delivery =
  qcheck_case ~count:15 "hier-labeled: delivery on random geometric graphs"
    QCheck2.Gen.(
      let* n = int_range 8 32 in
      let* seed = int_range 0 2_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let t = build m ~epsilon:0.4 in
      let s = Hier_labeled.to_underlying t in
      List.for_all
        (fun (src, dst) ->
          let o = Scheme.route_labeled m s ~src ~dst in
          o.Scheme.cost >= Metric.dist m src dst -. 1e-9)
        (Workload.sample_pairs ~n ~count:50 ~seed:(seed + 1)))

(* The shared descent names the node and the label when its next-hop
   source has no answer (-1) or answers the current node. *)
let test_descent_typed_error () =
  let m = grid6 () in
  List.iter
    (fun (what, next_hop) ->
      let w = Walker.create m ~start:3 ~max_hops:100 in
      Alcotest.check_raises what
        (Invalid_argument
           "Hier_labeled.route_over: node 3 has no next hop for label 7")
        (fun () ->
          Hier_labeled.route_over ~next_hop ~dest:20 w ~dest_label:7))
    [ ("no next hop", fun ~at:_ ~label:_ -> -1);
      ("next hop is the node itself", fun ~at ~label:_ -> at) ]

let suite =
  [ Alcotest.test_case "delivers on grid" `Quick test_delivery_grid;
    Alcotest.test_case "delivers on holey grid" `Quick test_delivery_holey;
    Alcotest.test_case "delivers on exponential chain" `Quick
      test_delivery_expo;
    Alcotest.test_case "stretch envelope on grid" `Quick
      test_stretch_bound_grid;
    Alcotest.test_case "epsilon monotonicity" `Quick
      test_smaller_epsilon_not_worse;
    Alcotest.test_case "labels compact" `Quick test_labels_compact;
    Alcotest.test_case "storage scales sublinearly" `Quick
      test_storage_scales_sublinearly;
    Alcotest.test_case "adjacent route" `Quick test_route_to_self_neighbors;
    Alcotest.test_case "descent without a next hop is a typed error" `Quick
      test_descent_typed_error;
    prop_random_geometric_delivery ]
