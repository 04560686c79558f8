(* Tests for the baseline schemes (the trade-off endpoints). *)

open Helpers
module Metric = Cr_metric.Metric
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Full_table = Cr_baselines.Full_table
module Spanning_tree = Cr_baselines.Spanning_tree

let test_full_table_stretch_one () =
  let m = holey () in
  let s = Full_table.labeled m in
  let summary = Stats.measure_labeled m s (all_pairs (Metric.n m)) in
  check_float "max stretch" 1.0 summary.max_stretch;
  check_float "avg stretch" 1.0 summary.avg_stretch

let test_full_table_ni () =
  let m = grid6 () in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:1 in
  let s = Scheme.with_name_directory m naming (Full_table.labeled m) in
  let summary =
    Stats.measure_name_independent m s naming (all_pairs (Metric.n m))
  in
  check_float "ni max stretch" 1.0 summary.max_stretch

let test_full_table_bits_linear () =
  let m = grid6 () in
  let s = Full_table.labeled m in
  check_int "bits = (n-1) log n" (35 * 6) (s.Scheme.l_table_bits 0)

let test_spanning_tree_delivers () =
  let m = holey () in
  let s = Spanning_tree.labeled m ~root:0 in
  List.iter
    (fun (src, dst) ->
      let o = Scheme.route_labeled m s ~src ~dst in
      check_bool "cost >= distance" true
        (o.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (all_pairs (Metric.n m))

let test_spanning_tree_bad_on_ring () =
  (* the classic failure: neighbors across the tree cut pay ~n-1 *)
  let m = ring16 () in
  let s = Spanning_tree.labeled m ~root:0 in
  let summary = Stats.measure_labeled m s (all_pairs 16) in
  check_bool
    (Printf.sprintf "ring worst stretch %.1f >= 15" summary.max_stretch)
    true
    (summary.max_stretch >= 15.0)

let test_spanning_tree_perfect_on_tree () =
  let m =
    Metric.of_graph
      (Cr_graphgen.Tree_gen.random_attachment ~n:31 ~max_degree:3 ~seed:9)
  in
  (* routing over the unique tree of a tree is optimal from any root *)
  let s = Spanning_tree.labeled m ~root:3 in
  let summary = Stats.measure_labeled m s (all_pairs (Metric.n m)) in
  check_float "tree stretch" 1.0 summary.max_stretch

let test_spanning_tree_ni_tables_account_directory () =
  let m = grid6 () in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:2 in
  let labeled = Spanning_tree.labeled m ~root:0 in
  let ni = Scheme.with_name_directory m naming labeled in
  for v = 0 to Metric.n m - 1 do
    check_bool "ni table > labeled table" true
      (ni.Scheme.ni_table_bits v > labeled.Scheme.l_table_bits v)
  done

let test_landmark_stretch_three () =
  List.iter
    (fun m ->
      let s = Cr_baselines.Landmark.labeled m ~seed:7 in
      let summary =
        Stats.measure_labeled m s (all_pairs (Metric.n m))
      in
      check_bool
        (Printf.sprintf "landmark stretch %.3f <= 3" summary.max_stretch)
        true
        (summary.max_stretch <= 3.0 +. 1e-9))
    [ grid6 (); holey (); ring16 (); geo48 (); expo12 () ]

let test_landmark_ni_delivers () =
  let m = grid6 () in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:4 in
  let s =
    Scheme.with_name_directory m naming
      (Cr_baselines.Landmark.labeled m ~seed:7)
  in
  let summary =
    Stats.measure_name_independent m s naming (all_pairs (Metric.n m))
  in
  check_bool "stretch <= 3" true (summary.max_stretch <= 3.0 +. 1e-9)

let test_landmark_count () =
  check_int "count(1)" 1 (Cr_baselines.Landmark.landmark_count 1);
  check_bool "count grows sublinearly" true
    (Cr_baselines.Landmark.landmark_count 10_000 < 1_000);
  check_bool "count at most n" true
    (Cr_baselines.Landmark.landmark_count 4 <= 4)

let test_landmark_tables_sublinear () =
  (* non-landmark nodes hold ~sqrt(n log n) entries, well below full *)
  let m = geo48 () in
  let n = Metric.n m in
  let s = Cr_baselines.Landmark.labeled m ~seed:7 in
  let full = (n - 1) * Cr_metric.Bits.id_bits n in
  let below_full = ref 0 in
  for v = 0 to n - 1 do
    if s.Scheme.l_table_bits v < full then incr below_full
  done;
  check_bool "most nodes below full-table size" true
    (!below_full > n / 2)

let suite =
  [ Alcotest.test_case "full table stretch 1" `Quick
      test_full_table_stretch_one;
    Alcotest.test_case "landmark stretch <= 3" `Quick
      test_landmark_stretch_three;
    Alcotest.test_case "landmark NI delivers" `Quick
      test_landmark_ni_delivers;
    Alcotest.test_case "landmark count" `Quick test_landmark_count;
    Alcotest.test_case "landmark tables sublinear" `Quick
      test_landmark_tables_sublinear;
    Alcotest.test_case "full table NI" `Quick test_full_table_ni;
    Alcotest.test_case "full table bits" `Quick test_full_table_bits_linear;
    Alcotest.test_case "spanning tree delivers" `Quick
      test_spanning_tree_delivers;
    Alcotest.test_case "spanning tree bad on ring" `Quick
      test_spanning_tree_bad_on_ring;
    Alcotest.test_case "spanning tree optimal on trees" `Quick
      test_spanning_tree_perfect_on_tree;
    Alcotest.test_case "NI directory accounted" `Quick
      test_spanning_tree_ni_tables_account_directory ]
