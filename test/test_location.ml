(* Tests for dynamic search-tree operations and the object-location
   directory (Cr_location). *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Directory = Cr_location.Directory
module Sfl = Cr_core.Scale_free_labeled
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks

(* --- dynamic search-tree primitives --- *)

let make_tree ?(pairs = []) m =
  Search_tree.build m ~epsilon:0.5 ~center:27 ~radius:5.0
    ~members:(Metric.ball m ~center:27 ~radius:5.0)
    ~level_cap:None ~pairs ~universe:4096

let test_insert_then_search () =
  let m = grid8 () in
  let st = make_tree m in
  List.iter
    (fun key -> ignore (Search_tree.insert st ~key ~data:(key * 10)))
    [ 5; 1000; 3; 777; 2048 ];
  List.iter
    (fun key ->
      check_bool "inserted key found" true
        ((Search_tree.search st ~key).Search_tree.data = Some (key * 10)))
    [ 5; 1000; 3; 777; 2048 ]

let test_insert_among_static_pairs () =
  let m = grid8 () in
  let static = List.init 30 (fun i -> (i * 4, i)) in
  let st = make_tree ~pairs:static m in
  (* interleave dynamic keys between the static ones *)
  List.iter
    (fun key -> ignore (Search_tree.insert st ~key ~data:(-key)))
    [ 1; 5; 9; 57; 119; 2000 ];
  List.iter
    (fun (k, d) ->
      check_bool "static key still found" true
        ((Search_tree.search st ~key:k).Search_tree.data = Some d))
    static;
  List.iter
    (fun key ->
      check_bool "dynamic key found" true
        ((Search_tree.search st ~key).Search_tree.data = Some (-key)))
    [ 1; 5; 9; 57; 119; 2000 ]

let test_insert_duplicate_rejected () =
  let m = grid8 () in
  let st = make_tree ~pairs:[ (7, 70) ] m in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Search_tree.insert: key already present") (fun () ->
      ignore (Search_tree.insert st ~key:7 ~data:0))

let test_remove () =
  let m = grid8 () in
  let st = make_tree ~pairs:[ (7, 70); (9, 90) ] m in
  let removed, _ = Search_tree.remove st ~key:7 in
  check_bool "removed" true removed;
  check_bool "gone" true ((Search_tree.search st ~key:7).Search_tree.data = None);
  check_bool "others stay" true
    ((Search_tree.search st ~key:9).Search_tree.data = Some 90);
  let removed, _ = Search_tree.remove st ~key:7 in
  check_bool "second remove is a no-op" false removed;
  (* the key can be reinserted after removal *)
  ignore (Search_tree.insert st ~key:7 ~data:71);
  check_bool "reinserted" true
    ((Search_tree.search st ~key:7).Search_tree.data = Some 71)

let prop_dynamic_roundtrip =
  qcheck_case ~count:30 "search tree: random insert/remove/search roundtrip"
    QCheck2.Gen.(
      let* seed = int_range 0 5_000 in
      let* keys = list_size (int_range 1 40) (int_range 0 4095) in
      return (seed, List.sort_uniq compare keys))
    (fun (seed, keys) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n:30 ~k:3 ~seed) in
      let st =
        Search_tree.build m ~epsilon:0.4 ~center:0 ~radius:6.0
          ~members:(Metric.ball m ~center:0 ~radius:6.0)
          ~level_cap:None ~pairs:[] ~universe:4096
      in
      List.iter (fun k -> ignore (Search_tree.insert st ~key:k ~data:k)) keys;
      let all_found =
        List.for_all
          (fun k -> (Search_tree.search st ~key:k).Search_tree.data = Some k)
          keys
      in
      (* remove every other key *)
      let removed, kept =
        List.partition (fun k -> k mod 2 = 0) keys
      in
      List.iter (fun k -> ignore (Search_tree.remove st ~key:k)) removed;
      all_found
      && List.for_all
           (fun k -> (Search_tree.search st ~key:k).Search_tree.data = None)
           removed
      && List.for_all
           (fun k -> (Search_tree.search st ~key:k).Search_tree.data = Some k)
           kept)

(* --- the location directory --- *)

let make_directory m =
  let nt = Netting_tree.build (Hierarchy.build m) in
  let labeled = Sfl.build nt ~epsilon:0.5 in
  Directory.create nt ~epsilon:0.5
    ~underlying:(Sfl.to_underlying labeled) ~key_universe:256

let lookup_from dir m ~client ~key =
  let w = Walker.create m ~start:client ~max_hops:1_000_000 in
  let found = Directory.lookup dir w ~key in
  (found, Walker.cost w)

let test_publish_lookup () =
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:5 ~holder:42);
  check_bool "holder recorded" true (Directory.holder dir ~key:5 = Some 42);
  for client = 0 to Metric.n m - 1 do
    let found, cost = lookup_from dir m ~client ~key:5 in
    check_bool "found" true (found = Some 42);
    check_bool "cost >= distance" true
      (cost >= Metric.dist m client 42 -. 1e-9 || client = 42)
  done

let test_lookup_missing () =
  let m = grid6 () in
  let dir = make_directory m in
  let found, _ = lookup_from dir m ~client:3 ~key:9 in
  check_bool "missing object" true (found = None)

(* A lookup runs Algorithm 3's loop: every hop is tagged with the zoom
   climb, the ball search or the delivery, and an unpublished key finds
   nothing. Each directory tree deals the key space over its nodes
   (Algorithm 1), so a published key sits at the node whose slice holds
   it, and reaching it takes ball-search hops (Algorithm 2). *)
let test_lookup_phases () =
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:5 ~holder:42);
  let mem = Sinks.Memory.create ~capacity:262144 () in
  let ctx =
    Trace.make ~clock:(Trace.counting_clock ()) (Sinks.Memory.sink mem)
  in
  for client = 0 to Metric.n m - 1 do
    let w = Walker.create ~obs:ctx m ~start:client ~max_hops:1_000_000 in
    check_bool "found" true (Directory.lookup dir w ~key:5 = Some 42)
  done;
  let phases =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.body with Trace.Hop { phase; _ } -> Some phase | _ -> None)
      (Sinks.Memory.events mem)
  in
  let tagged p = List.exists p phases in
  check_bool "zoom hops" true
    (tagged (function Trace.Zoom _ -> true | _ -> false));
  check_bool "ball-search hops" true
    (tagged (function Trace.Ball_search _ -> true | _ -> false));
  check_bool "delivery hops" true (tagged (fun p -> p = Trace.Deliver));
  check_bool "no other tag" true
    (List.for_all
       (function
         | Trace.Zoom _ | Trace.Ball_search _ | Trace.Deliver -> true
         | _ -> false)
       phases);
  let found, _ = lookup_from dir m ~client:0 ~key:9 in
  check_bool "unpublished key" true (found = None)

let test_move () =
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:7 ~holder:0);
  ignore (Directory.move dir ~key:7 ~from_holder:0 ~to_holder:63);
  check_bool "new holder" true (Directory.holder dir ~key:7 = Some 63);
  let found, _ = lookup_from dir m ~client:10 ~key:7 in
  check_bool "found at new home" true (found = Some 63)

let test_unpublish () =
  let m = grid6 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:1 ~holder:20);
  ignore (Directory.unpublish dir ~key:1 ~holder:20);
  check_bool "gone" true (Directory.holder dir ~key:1 = None);
  let found, _ = lookup_from dir m ~client:0 ~key:1 in
  check_bool "lookup misses" true (found = None);
  Alcotest.check_raises "unpublish twice"
    (Invalid_argument "Directory.unpublish: not published at this holder")
    (fun () -> ignore (Directory.unpublish dir ~key:1 ~holder:20))

let test_publish_validation () =
  let m = grid6 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:2 ~holder:4);
  Alcotest.check_raises "double publish"
    (Invalid_argument "Directory.publish: key already published") (fun () ->
      ignore (Directory.publish dir ~key:2 ~holder:5));
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Directory: key out of range") (fun () ->
      ignore (Directory.publish dir ~key:999 ~holder:5))

let test_lookup_locality () =
  (* A client next to the object must pay far less than a cross-network
     client: the locality property. *)
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:3 ~holder:0);
  let _, near = lookup_from dir m ~client:1 ~key:3 in
  let _, far = lookup_from dir m ~client:63 ~key:3 in
  check_bool
    (Printf.sprintf "near %.1f << far %.1f" near far)
    true
    (near *. 2.0 < far)

let test_many_objects () =
  let m = grid6 () in
  let dir = make_directory m in
  let n = Metric.n m in
  for key = 0 to 49 do
    ignore (Directory.publish dir ~key ~holder:(key * 7 mod n))
  done;
  for key = 0 to 49 do
    let found, _ = lookup_from dir m ~client:(key mod n) ~key in
    check_bool "every object found" true (found = Some (key * 7 mod n))
  done

(* --- replicated objects --- *)

let test_replica_publish_lookup () =
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish_replica dir ~key:9 ~holder:0);
  ignore (Directory.publish_replica dir ~key:9 ~holder:63);
  Alcotest.(check (list int)) "replicas" [ 0; 63 ]
    (Directory.replicas dir ~key:9);
  for client = 0 to Metric.n m - 1 do
    let found, _ = lookup_from dir m ~client ~key:9 in
    check_bool "some replica found" true (found = Some 0 || found = Some 63)
  done

let test_replica_locality () =
  (* clients near each corner must be served by their local replica at a
     cost far below the cross-network distance *)
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish_replica dir ~key:3 ~holder:0);
  ignore (Directory.publish_replica dir ~key:3 ~holder:63);
  let found_near, cost_near = lookup_from dir m ~client:1 ~key:3 in
  let found_far, cost_far = lookup_from dir m ~client:62 ~key:3 in
  check_bool "corner 1 served locally" true (found_near = Some 0);
  check_bool "corner 62 served locally" true (found_far = Some 63);
  check_bool "local costs small" true
    (cost_near < Metric.dist m 1 63 && cost_far < Metric.dist m 62 0)

let test_replica_unpublish_repoints () =
  let m = grid8 () in
  let dir = make_directory m in
  ignore (Directory.publish_replica dir ~key:5 ~holder:0);
  ignore (Directory.publish_replica dir ~key:5 ~holder:63);
  ignore (Directory.unpublish_replica dir ~key:5 ~holder:0);
  Alcotest.(check (list int)) "one replica left" [ 63 ]
    (Directory.replicas dir ~key:5);
  for client = 0 to Metric.n m - 1 do
    let found, _ = lookup_from dir m ~client ~key:5 in
    check_bool "all clients re-pointed" true (found = Some 63)
  done;
  ignore (Directory.unpublish_replica dir ~key:5 ~holder:63);
  let found, _ = lookup_from dir m ~client:3 ~key:5 in
  check_bool "gone after last replica" true (found = None)

let test_replica_validation () =
  let m = grid6 () in
  let dir = make_directory m in
  ignore (Directory.publish dir ~key:1 ~holder:2);
  Alcotest.check_raises "replica of single key"
    (Invalid_argument "Directory.publish_replica: key is singly published")
    (fun () -> ignore (Directory.publish_replica dir ~key:1 ~holder:3));
  ignore (Directory.publish_replica dir ~key:2 ~holder:4);
  Alcotest.check_raises "single publish of replica key"
    (Invalid_argument "Directory.publish: key already published") (fun () ->
      ignore (Directory.publish dir ~key:2 ~holder:5));
  Alcotest.check_raises "duplicate replica"
    (Invalid_argument "Directory.publish_replica: already a replica holder")
    (fun () -> ignore (Directory.publish_replica dir ~key:2 ~holder:4));
  Alcotest.check_raises "unpublish non-replica"
    (Invalid_argument "Directory.unpublish_replica: not a replica holder")
    (fun () -> ignore (Directory.unpublish_replica dir ~key:2 ~holder:9))

let suite =
  [ Alcotest.test_case "insert then search" `Quick test_insert_then_search;
    Alcotest.test_case "replica publish + lookup" `Quick
      test_replica_publish_lookup;
    Alcotest.test_case "replica locality" `Quick test_replica_locality;
    Alcotest.test_case "replica unpublish re-points" `Quick
      test_replica_unpublish_repoints;
    Alcotest.test_case "replica validation" `Quick test_replica_validation;
    Alcotest.test_case "insert among static pairs" `Quick
      test_insert_among_static_pairs;
    Alcotest.test_case "insert duplicate rejected" `Quick
      test_insert_duplicate_rejected;
    Alcotest.test_case "remove" `Quick test_remove;
    prop_dynamic_roundtrip;
    Alcotest.test_case "publish + lookup from everywhere" `Quick
      test_publish_lookup;
    Alcotest.test_case "lookup missing" `Quick test_lookup_missing;
    Alcotest.test_case "lookup hops tagged by Algorithm 3's phases" `Quick
      test_lookup_phases;
    Alcotest.test_case "move" `Quick test_move;
    Alcotest.test_case "unpublish" `Quick test_unpublish;
    Alcotest.test_case "publish validation" `Quick test_publish_validation;
    Alcotest.test_case "lookup locality" `Quick test_lookup_locality;
    Alcotest.test_case "many objects" `Quick test_many_objects ]
