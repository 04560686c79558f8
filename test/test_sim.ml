(* Tests for the simulation layer: walker, workload, statistics. *)

open Helpers
module Metric = Cr_metric.Metric
module Walker = Cr_sim.Walker
module Failures = Cr_sim.Failures
module Workload = Cr_sim.Workload
module Stats = Cr_sim.Stats
module Scheme = Cr_sim.Scheme

(* The worst-stretch pair of a labeled scheme over [pairs]. *)
let worst_pair_labeled m (s : Scheme.labeled) pairs =
  List.fold_left
    (fun ((_, best) as acc) (src, dst) ->
      let outcome = Scheme.route_labeled s ~src ~dst in
      let stretch = outcome.Scheme.cost /. Metric.dist m src dst in
      if stretch > best then ((src, dst), stretch) else acc)
    ((-1, -1), neg_infinity)
    pairs

let test_walker_step () =
  let m = grid6 () in
  let w = Walker.create m ~start:0 ~max_hops:10 in
  Walker.step w 1;
  check_int "position" 1 (Walker.position w);
  check_float "cost" 1.0 (Walker.cost w);
  check_int "hops" 1 (Walker.hops w);
  Alcotest.check_raises "not a neighbor"
    (Invalid_argument "Walker.step: not a neighbor") (fun () ->
      Walker.step w 35)

let test_walker_shortest_path () =
  let m = grid6 () in
  let w = Walker.create m ~start:0 ~max_hops:100 in
  Walker.walk_shortest_path w 35;
  check_int "arrives" 35 (Walker.position w);
  check_float "pays exactly the distance" (Metric.dist m 0 35) (Walker.cost w);
  (* walking to the current position is free *)
  Walker.walk_shortest_path w 35;
  check_float "no extra cost" (Metric.dist m 0 35) (Walker.cost w)

let test_walker_budget () =
  let m = grid6 () in
  let w = Walker.create m ~start:0 ~max_hops:3 in
  Alcotest.check_raises "budget" Walker.Hop_budget_exhausted (fun () ->
      Walker.walk_shortest_path w 35)

let test_walker_teleport () =
  let m = grid6 () in
  let w = Walker.create m ~start:0 ~max_hops:10 in
  Walker.teleport w 20 ~cost:2.5;
  check_int "teleported" 20 (Walker.position w);
  check_float "teleport cost" 2.5 (Walker.cost w)

(* The failure contract: a move onto a failed edge or node raises
   [Blocked] naming the attempted move and leaves the walker as it was;
   without failures the same edge is crossed. On grid6, edge 0-1 and node
   7 fail; 6 is a neighbour of both 0 and 7. *)
let test_walker_blocked () =
  let m = grid6 () in
  let failures = Failures.create ~edges:[ (0, 1) ] ~nodes:[ 7 ] () in
  let w = Walker.create ~failures m ~start:0 ~max_hops:10 in
  let blocked what ~src ~dst move =
    let at = Walker.position w and cost = Walker.cost w in
    let hops = Walker.hops w in
    (match move () with
    | () -> Alcotest.failf "%s: moved" what
    | exception Walker.Blocked b ->
      check_int (what ^ ": blocked src") src b.src;
      check_int (what ^ ": blocked dst") dst b.dst);
    check_int (what ^ ": position kept") at (Walker.position w);
    check_float (what ^ ": cost kept") cost (Walker.cost w);
    check_int (what ^ ": hops kept") hops (Walker.hops w)
  in
  blocked "step across the failed edge" ~src:0 ~dst:1 (fun () ->
      Walker.step w 1);
  Walker.step w 6;
  blocked "step onto the failed node" ~src:6 ~dst:7 (fun () ->
      Walker.step w 7);
  blocked "teleport onto the failed node" ~src:6 ~dst:7 (fun () ->
      Walker.teleport w 7 ~cost:1.0);
  let intact = Walker.create ~failures:Failures.none m ~start:0 ~max_hops:10 in
  Walker.step intact 1;
  check_int "no failures: crossed" 1 (Walker.position intact);
  check_float "no failures: cost" 1.0 (Walker.cost intact);
  check_int "no failures: hops" 1 (Walker.hops intact)

(* An untraced walker without failures allocates nothing per hop: 10k
   warmed steps back and forth across one edge take no minor words. *)
let rec shuttle w k =
  if k > 0 then begin
    Walker.step w (1 - Walker.position w);
    shuttle w (k - 1)
  end

let test_walker_step_alloc () =
  let m = grid6 () in
  let w = Walker.create ~obs:Cr_obs.Trace.null m ~start:0 ~max_hops:20_000 in
  shuttle w 10_000;
  let before = Gc.minor_words () in
  shuttle w 10_000;
  let after = Gc.minor_words () in
  check_int "hops" 20_000 (Walker.hops w);
  check_float "minor words over 10k steps" 0.0 (after -. before)

let test_all_pairs () =
  let pairs = all_pairs 5 in
  check_int "count" 20 (List.length pairs);
  check_bool "no self pairs" true (List.for_all (fun (u, v) -> u <> v) pairs)

let test_sample_pairs () =
  let pairs = Workload.sample_pairs ~n:10 ~count:200 ~seed:3 in
  check_int "count" 200 (List.length pairs);
  check_bool "valid" true
    (List.for_all
       (fun (u, v) -> u <> v && u >= 0 && u < 10 && v >= 0 && v < 10)
       pairs)

let test_pairs_for_policy () =
  check_int "small n exhaustive" 20 (List.length (Workload.pairs_for ~n:5 ~seed:1 ~budget:100));
  check_int "large n sampled" 100
    (List.length (Workload.pairs_for ~n:50 ~seed:1 ~budget:100))

let test_namings () =
  let naming = Workload.random_naming ~n:20 ~seed:9 in
  let seen = Array.make 20 false in
  Array.iter
    (fun name ->
      check_bool "name unique" false seen.(name);
      seen.(name) <- true)
    naming.Workload.name_of;
  Array.iteri
    (fun v name -> check_int "inverse" v naming.Workload.node_of.(name))
    naming.Workload.name_of;
  let id = identity_naming 5 in
  check_int "identity" 3 id.Workload.name_of.(3)

let test_stats_summarize () =
  let s =
    Stats.summarize [ (1.0, 2.0, 3); (2.0, 2.0, 1); (4.0, 4.0, 2) ]
  in
  check_int "count" 3 s.Stats.count;
  check_float "max" 2.0 s.Stats.max_stretch;
  check_float "avg" ((2.0 +. 1.0 +. 1.0) /. 3.0) s.Stats.avg_stretch;
  check_float "max cost" 4.0 s.Stats.max_cost;
  check_int "hops" 6 s.Stats.total_hops;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: no samples")
    (fun () -> ignore (Stats.summarize []))

let test_stats_percentiles () =
  (* 100 samples with stretch k = 1..100: nearest-rank gives
     p50 = ceil(0.50 * 100) = 50th value and p99 = ceil(0.99 * 100) = 99th
     value — notably p99 is NOT the max. *)
  let samples =
    List.init 100 (fun i -> (1.0, float_of_int (i + 1), 0))
  in
  let s = Stats.summarize samples in
  check_float "p50 of 1..100" 50.0 s.Stats.p50_stretch;
  check_float "p99 of 1..100" 99.0 s.Stats.p99_stretch;
  check_float "max of 1..100" 100.0 s.Stats.max_stretch;
  (* tiny sample: p50 is the middle of three, p99 clamps to the max *)
  let s3 = Stats.summarize [ (1.0, 1.0, 0); (1.0, 2.0, 0); (1.0, 4.0, 0) ] in
  check_float "p50 of 3" 2.0 s3.Stats.p50_stretch;
  check_float "p99 of 3" 4.0 s3.Stats.p99_stretch;
  (* single sample: every percentile is that sample *)
  let s1 = Stats.summarize [ (2.0, 3.0, 1) ] in
  check_float "p50 of 1" 1.5 s1.Stats.p50_stretch;
  check_float "p99 of 1" 1.5 s1.Stats.p99_stretch

let test_measure_full_table () =
  let m = grid6 () in
  let s = Cr_baselines.Full_table.labeled m in
  let summary = Stats.measure_labeled m s (all_pairs 36) in
  check_float "stretch exactly 1" 1.0 summary.Stats.max_stretch

let test_worst_pair () =
  let m = ring16 () in
  let s = Cr_baselines.Spanning_tree.labeled m ~root:0 in
  let (u, v), stretch = worst_pair_labeled m s (all_pairs 16) in
  (* the worst ring pair is the tree cut: neighbors 7-8 or 8-9 routed the
     long way round (the SPT from 0 splits antipodally) *)
  check_bool "worst stretch large" true (stretch >= 15.0);
  check_bool "worst pair adjacent" true (abs (u - v) = 1 || abs (u - v) = 15)

let prop_scheme_summaries =
  qcheck_case ~count:20 "scheme summary helpers match direct folds"
    QCheck2.Gen.(int_range 2 50)
    (fun n ->
      let s =
        { Scheme.l_name = "test";
          label = Fun.id;
          route_to_label = (fun ~src:_ ~dest_label:_ -> { Scheme.cost = 0.; hops = 0 });
          l_table_bits = (fun v -> v * 7);
          l_label_bits = 1;
          l_header_bits = 1 }
      in
      Scheme.max_table_bits s n = (n - 1) * 7
      && Float.abs
           (Scheme.avg_table_bits s n
           -. (7.0 *. float_of_int (n - 1) /. 2.0))
         < 1e-9)

let suite =
  [ Alcotest.test_case "walker step" `Quick test_walker_step;
    Alcotest.test_case "walker shortest path" `Quick
      test_walker_shortest_path;
    Alcotest.test_case "walker budget" `Quick test_walker_budget;
    Alcotest.test_case "walker teleport" `Quick test_walker_teleport;
    Alcotest.test_case "walker failure contract" `Quick test_walker_blocked;
    Alcotest.test_case "walker step allocates nothing" `Quick
      test_walker_step_alloc;
    Alcotest.test_case "all pairs" `Quick test_all_pairs;
    Alcotest.test_case "sample pairs" `Quick test_sample_pairs;
    Alcotest.test_case "pairs_for policy" `Quick test_pairs_for_policy;
    Alcotest.test_case "namings bijective" `Quick test_namings;
    Alcotest.test_case "stats summarize" `Quick test_stats_summarize;
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "measure full table" `Quick test_measure_full_table;
    Alcotest.test_case "worst pair on ring" `Quick test_worst_pair;
    prop_scheme_summaries ]
