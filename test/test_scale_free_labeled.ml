(* Tests for the scale-free labeled scheme (Theorem 1.2 / Algorithm 5). *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Sfl = Cr_core.Scale_free_labeled
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks

let build m ~epsilon =
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  Sfl.build nt ~epsilon

let check_all_pairs m t =
  let s = Sfl.to_underlying t in
  List.iter
    (fun (src, dst) ->
      let o = Scheme.route_labeled m s ~src ~dst in
      check_bool "cost >= distance" true
        (o.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (all_pairs (Metric.n m))

let test_delivery_grid () =
  let m = grid6 () in
  check_all_pairs m (build m ~epsilon:0.5)

let test_delivery_holey () =
  let m = holey () in
  check_all_pairs m (build m ~epsilon:0.5)

let test_delivery_ring () =
  let m = ring16 () in
  check_all_pairs m (build m ~epsilon:0.5)

let test_delivery_expo () =
  (* exponential-diameter chain: the scale-free scheme's home turf *)
  let m = expo12 () in
  check_all_pairs m (build m ~epsilon:0.5)

let test_stretch_envelope () =
  let m = grid8 () in
  let t = build m ~epsilon:0.25 in
  let s = Sfl.to_underlying t in
  let summary = Stats.measure_labeled m s (all_pairs (Metric.n m)) in
  check_bool
    (Printf.sprintf "max stretch %.3f within 1+O(eps) envelope"
       summary.max_stretch)
    true
    (summary.max_stretch <= 2.5)

let test_no_fallbacks_on_good_instances () =
  List.iter
    (fun m ->
      let t = build m ~epsilon:0.5 in
      check_all_pairs m t;
      check_int "no fallbacks" 0 (Sfl.fallback_count t))
    [ grid6 (); ring16 (); geo48 () ]

let test_labels_are_log_n () =
  let m = grid6 () in
  let t = build m ~epsilon:0.5 in
  check_int "label bits" 6 (Sfl.label_bits t)

let test_scale_free_storage () =
  (* The defining property: storage must not grow with Delta. Compare two
     12-node chains whose diameters differ by a factor ~2^11. *)
  let max_bits m =
    let t = build m ~epsilon:0.5 in
    let best = ref 0 in
    for v = 0 to Metric.n m - 1 do
      best := max !best (Sfl.table_bits t v)
    done;
    !best
  in
  let unit_chain = Metric.of_graph (Cr_graphgen.Path_like.path ~n:12) in
  let expo_chain = expo12 () in
  let b_unit = max_bits unit_chain and b_expo = max_bits expo_chain in
  check_bool
    (Printf.sprintf "expo %d bits <= 3x unit %d bits" b_expo b_unit)
    true
    (b_expo <= 3 * b_unit)

(* On the exponential chain Algorithm 5 leaves the ring phase. An
   observer changes nothing a walk emits, and the four phase costs it
   reports sum to the walk's cost. *)
let test_observed_walk () =
  let m =
    Metric.of_graph (Cr_graphgen.Path_like.exponential_chain ~n:32 ~base:2.0)
  in
  let t = build m ~epsilon:0.5 in
  let n = Metric.n m in
  let traced ~src walk =
    let mem = Sinks.Memory.create ~capacity:65536 () in
    let ctx =
      Trace.make ~clock:(Trace.counting_clock ()) (Sinks.Memory.sink mem)
    in
    let w =
      Walker.create ~obs:ctx m ~start:src ~max_hops:(Walker.labeled_budget n)
    in
    walk w;
    (List.map Sinks.json_of_event (Sinks.Memory.events mem), Walker.cost w)
  in
  let left_ring_phase = ref 0 in
  List.iter
    (fun (src, dst) ->
      let dest_label = Sfl.label t dst in
      let plain, _ = traced ~src (fun w -> Sfl.walk t w ~dest_label) in
      let report = ref None in
      let observed, cost =
        traced ~src (fun w ->
            Sfl.walk ~observe:(fun r -> report := Some r) t w ~dest_label)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%d -> %d: observed trace" src dst)
        plain observed;
      match !report with
      | None -> ()
      | Some r ->
        if r.Sfl.exit_level >= 1 && r.Sfl.scale >= 0 then
          incr left_ring_phase;
        check_float
          (Printf.sprintf "%d -> %d: phase costs sum to the cost" src dst)
          cost
          (r.Sfl.ring_cost +. r.Sfl.climb_cost +. r.Sfl.search_cost
         +. r.Sfl.tree_cost))
    (all_pairs n);
  check_bool
    (Printf.sprintf "%d routes left the ring phase" !left_ring_phase)
    true (!left_ring_phase > 0)

let prop_delivery_random =
  qcheck_case ~count:10 "scale-free labeled: delivery on random graphs"
    QCheck2.Gen.(
      let* n = int_range 8 32 in
      let* seed = int_range 0 2_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let t = build m ~epsilon:0.4 in
      let s = Sfl.to_underlying t in
      List.for_all
        (fun (src, dst) ->
          let o = Scheme.route_labeled m s ~src ~dst in
          o.Scheme.cost >= Metric.dist m src dst -. 1e-9)
        (Workload.sample_pairs ~n ~count:60 ~seed:(seed + 5)))

let suite =
  [ Alcotest.test_case "delivers on grid" `Quick test_delivery_grid;
    Alcotest.test_case "delivers on holey grid" `Quick test_delivery_holey;
    Alcotest.test_case "delivers on ring" `Quick test_delivery_ring;
    Alcotest.test_case "delivers on exponential chain" `Quick
      test_delivery_expo;
    Alcotest.test_case "stretch envelope" `Quick test_stretch_envelope;
    Alcotest.test_case "no fallbacks on good instances" `Quick
      test_no_fallbacks_on_good_instances;
    Alcotest.test_case "log n labels" `Quick test_labels_are_log_n;
    Alcotest.test_case "scale-free storage on chains" `Quick
      test_scale_free_storage;
    Alcotest.test_case "observer leaves the walk unchanged" `Quick
      test_observed_walk;
    prop_delivery_random ]

let test_netting_descent_delivers () =
  (* the fallback must deliver from any start to any label, even though the
     fast path never needs it on these instances *)
  let m = holey () in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let n = Metric.n m in
  List.iter
    (fun (src, dst) ->
      let w = Cr_sim.Walker.create m ~start:src ~max_hops:1_000_000 in
      Cr_core.Netting_descent.walk nt w ~dest_label:(Netting_tree.label nt dst);
      check_int "fallback arrives" dst (Cr_sim.Walker.position w))
    (Workload.sample_pairs ~n ~count:100 ~seed:31)

let suite =
  suite
  @ [ Alcotest.test_case "netting descent delivers" `Quick
        test_netting_descent_delivers ]
