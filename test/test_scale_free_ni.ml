(* Tests for the Theorem 1.1 scale-free name-independent scheme
   (Algorithms 3-4, Section 3.3). *)

open Helpers
module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Sfl = Cr_core.Scale_free_labeled
module Sfni = Cr_core.Scale_free_ni
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload

let build ?(epsilon = 0.5) ?(seed = 42) m =
  let nt = Netting_tree.build (Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed in
  let sfl = Sfl.build nt ~epsilon in
  let t =
    Sfni.build nt ~epsilon ~naming ~underlying:(Sfl.to_underlying sfl)
  in
  (t, naming)

let check_all_pairs m (t, naming) =
  let s = Sfni.to_scheme t in
  List.iter
    (fun (src, dst) ->
      let o =
        s.Scheme.route_to_name ~src
          ~dest_name:naming.Workload.name_of.(dst)
      in
      check_bool "cost >= distance" true
        (o.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (all_pairs (Metric.n m))

let test_delivery_grid () =
  let m = grid6 () in
  check_all_pairs m (build m)

let test_delivery_holey () =
  let m = holey () in
  check_all_pairs m (build m)

let test_delivery_ring () =
  let m = ring16 () in
  check_all_pairs m (build m)

let test_delivery_expo () =
  let m = expo12 () in
  check_all_pairs m (build m)

let test_stretch_envelope () =
  let m = grid8 () in
  let t, naming = build m in
  let s = Sfni.to_scheme t in
  let summary =
    Stats.measure_name_independent m s naming
      (all_pairs (Metric.n m))
  in
  check_bool
    (Printf.sprintf "max stretch %.3f <= 13" summary.max_stretch)
    true (summary.max_stretch <= 13.0)

let test_tree_balance () =
  (* Type-B trees exist at every scale; type-A trees only where no packed
     ball covers (on a uniform grid most net balls are covered). *)
  let m = grid8 () in
  let t, _ = build m in
  check_bool "some packing trees" true (Sfni.type_b_count t > 0);
  check_bool "A + B positive" true
    (Sfni.type_a_count t + Sfni.type_b_count t > 0)

let test_h_links_bounded () =
  (* S(u) is a subset of the levels, and Claim 3.9 bounds the distinct
     linked balls per scale by 4. *)
  let m = holey () in
  let t, _ = build m in
  let top = Hierarchy.top_level (Hierarchy.build m) in
  for u = 0 to Metric.n m - 1 do
    let links = Sfni.h_links_of t u in
    check_bool "links sorted levels" true
      (List.sort compare links = links);
    check_bool "links within level range" true
      (List.for_all (fun i -> i >= 0 && i <= top) links)
  done

let test_lemma_3_5_tree_count () =
  (* #search trees containing any node is (1/eps)^O(alpha) log n; the
     constant for our fixtures sits below 6 (see EXPERIMENTS.md). *)
  List.iter
    (fun m ->
      let t, _ = build m in
      let envelope = 6.0 *. Float.log2 (float_of_int (Metric.n m)) in
      for v = 0 to Metric.n m - 1 do
        check_bool
          (Printf.sprintf "node %d: %d trees within envelope" v
             (Sfni.trees_containing t v))
          true
          (float_of_int (Sfni.trees_containing t v) <= envelope)
      done)
    [ grid6 (); holey (); geo48 (); expo12 () ]

let test_claim_3_9_distinct_balls_per_scale () =
  List.iter
    (fun m ->
      let t, _ = build m in
      for u = 0 to Metric.n m - 1 do
        let by_scale = Hashtbl.create 8 in
        List.iter
          (fun (_, j, center) ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt by_scale j)
            in
            if not (List.mem center existing) then
              Hashtbl.replace by_scale j (center :: existing))
          (Sfni.h_link_balls t u);
        Hashtbl.iter
          (fun j centers ->
            check_bool
              (Printf.sprintf "node %d scale %d: %d distinct H balls <= 4" u j
                 (List.length centers))
              true
              (List.length centers <= 4))
          by_scale
      done)
    [ grid6 (); holey (); ring16 (); expo12 () ]

let test_scale_free_storage_on_chains () =
  (* The defining property (mirrors the labeled test): storage flat as
     Delta explodes with n fixed. *)
  let max_bits m =
    let t, _ = build m in
    let best = ref 0 in
    for v = 0 to Metric.n m - 1 do
      best := max !best (Sfni.table_bits t v)
    done;
    !best
  in
  let unit_chain = Metric.of_graph (Cr_graphgen.Path_like.path ~n:12) in
  let b_unit = max_bits unit_chain and b_expo = max_bits (expo12 ()) in
  check_bool
    (Printf.sprintf "expo %d bits <= 3x unit %d bits" b_expo b_unit)
    true
    (b_expo <= 3 * b_unit)

let test_found_level_and_headers () =
  let m = grid6 () in
  let t, naming = build m in
  let n = Metric.n m in
  for dst = 1 to n - 1 do
    check_bool "found level >= 0" true
      (Sfni.found_level t ~src:0 ~dest_name:naming.Workload.name_of.(dst)
      >= 0)
  done;
  check_bool "headers polylog" true
    ((Sfni.to_scheme t).Cr_sim.Scheme.ni_header_bits <= 20 * Bits.id_bits n * Bits.id_bits n)

let prop_delivery_random =
  qcheck_case ~count:8 "scale-free NI: delivery on random graphs and namings"
    QCheck2.Gen.(
      let* n = int_range 8 24 in
      let* seed = int_range 0 2_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let t, naming = build m ~seed:(seed + 1) in
      let s = Sfni.to_scheme t in
      List.for_all
        (fun (src, dst) ->
          let o =
            s.Scheme.route_to_name ~src
              ~dest_name:naming.Workload.name_of.(dst)
          in
          o.Scheme.cost >= Metric.dist m src dst -. 1e-9)
        (Workload.sample_pairs ~n ~count:30 ~seed:(seed + 2)))

let suite =
  [ Alcotest.test_case "delivers on grid" `Quick test_delivery_grid;
    Alcotest.test_case "delivers on holey grid" `Quick test_delivery_holey;
    Alcotest.test_case "delivers on ring" `Quick test_delivery_ring;
    Alcotest.test_case "delivers on exponential chain" `Quick
      test_delivery_expo;
    Alcotest.test_case "stretch envelope" `Quick test_stretch_envelope;
    Alcotest.test_case "tree balance (A/B)" `Quick test_tree_balance;
    Alcotest.test_case "H links bounded" `Quick test_h_links_bounded;
    Alcotest.test_case "Claim 3.9: <= 4 distinct balls per scale" `Quick
      test_claim_3_9_distinct_balls_per_scale;
    Alcotest.test_case "Lemma 3.5: tree count polylog" `Quick
      test_lemma_3_5_tree_count;
    Alcotest.test_case "scale-free storage on chains" `Quick
      test_scale_free_storage_on_chains;
    Alcotest.test_case "found_level and headers" `Quick
      test_found_level_and_headers;
    prop_delivery_random ]
