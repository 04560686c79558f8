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
module Route_trace = Cr_core.Route_trace

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

(* Every route of the 32-node exponential chain, captured with its
   phase-tagged event log: the chain on which Algorithm 5 leaves the ring
   phase. *)
let expo32_routes =
  memo (fun () ->
      let m =
        Metric.of_graph
          (Cr_graphgen.Path_like.exponential_chain ~n:32 ~base:2.0)
      in
      let t = build m ~epsilon:0.5 in
      List.map
        (fun (src, dst) ->
          Route_trace.capture m ~src ~dst ~walk:(fun w ->
              Sfl.walk t w ~dest_label:(Sfl.label t dst)))
        (all_pairs (Metric.n m)))

let test_delivery_expo () =
  (* exponential-diameter chain: the scale-free scheme's home turf *)
  let m = expo12 () in
  check_all_pairs m (build m ~epsilon:0.5);
  (* on the 32-node chain some route looks its destination up in a search
     tree II *)
  let search_tree_hop (e : Trace.event) =
    match e.Trace.body with
    | Trace.Hop { phase = Trace.Search_tree_phase; _ } -> true
    | _ -> false
  in
  check_bool "some route has search-tree II hops" true
    (List.exists
       (fun r -> List.exists search_tree_hop r.Route_trace.events)
       (expo32_routes ()))

(* Algorithm 5 charges all its travel through the walker under a phase
   tag: on the exponential chain, where routes cross the net, Voronoi and
   search-tree phases, the per-phase hop costs add up to each route's
   cost. *)
let test_phase_costs_sum () =
  let routes = expo32_routes () in
  List.iter
    (fun (r : Route_trace.t) ->
      let pair =
        Printf.sprintf "%d -> %d" r.Route_trace.src r.Route_trace.dst
      in
      check_int (pair ^ ": unphased hops") 0 (Route_trace.unphased_hops r);
      check_bool (pair ^ ": phase costs sum to the cost") true
        (Float.abs (Route_trace.phase_cost_total r -. r.Route_trace.cost)
        <= 1e-9 *. Float.max 1.0 r.Route_trace.cost))
    routes;
  let phases =
    List.concat_map (fun r -> List.map fst (Route_trace.phase_costs r)) routes
  in
  List.iter
    (fun phase ->
      check_bool (Trace.phase_label phase ^ " hops occur") true
        (List.mem phase phases))
    [ Trace.Net_phase; Trace.Voronoi_phase; Trace.Search_tree_phase ]

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
    Alcotest.test_case "phase costs sum to the walk's cost" `Quick
      test_phase_costs_sum;
    Alcotest.test_case "stretch envelope" `Quick test_stretch_envelope;
    Alcotest.test_case "no fallbacks on good instances" `Quick
      test_no_fallbacks_on_good_instances;
    Alcotest.test_case "log n labels" `Quick test_labels_are_log_n;
    Alcotest.test_case "scale-free storage on chains" `Quick
      test_scale_free_storage;
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
