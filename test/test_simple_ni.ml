(* Tests for the Theorem 1.4 name-independent scheme (Algorithm 3). *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Hier_labeled = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Ni_scheme = Cr_core.Ni_scheme
module Ni_route = Cr_core.Ni_route
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload

let nt_of m = Netting_tree.build (Hierarchy.build m)

let build ?(epsilon = 0.5) ?(seed = 42) m =
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed in
  let hl = Hier_labeled.build nt ~epsilon in
  let t =
    Simple_ni.build nt ~epsilon ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  (t, naming)

let check_all_pairs m (t, naming) =
  let s = Simple_ni.to_scheme t in
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

let test_delivery_expo () =
  let m = expo12 () in
  check_all_pairs m (build m)

let test_stretch_envelope () =
  let m = grid8 () in
  let t, naming = build m in
  let s = Simple_ni.to_scheme t in
  let summary =
    Stats.measure_name_independent m s naming
      (all_pairs (Metric.n m))
  in
  (* Lemma 3.4's constant at eps_eff = 0.4 is 1 + 8(1/e+1)/(1/e-2) = 57;
     measured behaviour sits near the asymptotic 9. *)
  check_bool
    (Printf.sprintf "max stretch %.3f <= 13" summary.max_stretch)
    true (summary.max_stretch <= 13.0)

let test_identity_naming () =
  (* The scheme must not depend on names being random. *)
  let m = grid6 () in
  let nt = nt_of m in
  let naming = identity_naming (Metric.n m) in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  check_all_pairs m (t, naming)

let test_composes_with_scale_free_underlying () =
  (* Theorem 1.4's layer over Theorem 1.2's labeled scheme. *)
  let m = ring16 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:9 in
  let sfl = Sfl.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Sfl.to_underlying sfl)
  in
  check_all_pairs m (t, naming)

let test_observer_reports () =
  let m = holey () in
  let t, naming = build m in
  let reports = ref [] in
  let w = Walker.create m ~start:0 ~max_hops:1_000_000 in
  Ni_scheme.walk
    ~observe:(fun r -> reports := r :: !reports)
    t w ~dest_name:naming.Workload.name_of.(Metric.n m - 1);
  let reports = List.rev !reports in
  check_bool "at least one level" true (reports <> []);
  List.iteri
    (fun i (r : Ni_route.level_report) ->
      check_int "levels consecutive" i r.Ni_route.level;
      check_bool "costs non-negative" true
        (r.Ni_route.climb_cost >= 0.0 && r.Ni_route.search_cost >= 0.0);
      check_bool "found only at last" true
        (r.Ni_route.found = (i = List.length reports - 1)))
    reports

let test_found_level_consistent () =
  let m = grid6 () in
  let t, naming = build m in
  for dst = 1 to Metric.n m - 1 do
    let lvl =
      Ni_route.found_level t.Ni_scheme.lookup ~src:0
        ~dest_name:naming.Workload.name_of.(dst)
    in
    check_bool "level in range" true (lvl >= 0)
  done

let test_table_bits_include_underlying () =
  let m = grid6 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:4 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  for v = 0 to Metric.n m - 1 do
    check_bool "NI table exceeds underlying table" true
      (Ni_scheme.table_bits t v > (Hier_labeled.to_underlying hl).Cr_sim.Scheme.l_table_bits v)
  done

let prop_delivery_random =
  qcheck_case ~count:10 "simple NI: delivery on random graphs and namings"
    QCheck2.Gen.(
      let* n = int_range 8 28 in
      let* seed = int_range 0 2_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let t, naming = build m ~seed:(seed + 1) in
      let s = Simple_ni.to_scheme t in
      List.for_all
        (fun (src, dst) ->
          let o =
            s.Scheme.route_to_name ~src
              ~dest_name:naming.Workload.name_of.(dst)
          in
          o.Scheme.cost >= Metric.dist m src dst -. 1e-9)
        (Workload.sample_pairs ~n ~count:40 ~seed:(seed + 2)))

let suite =
  [ Alcotest.test_case "delivers on grid" `Quick test_delivery_grid;
    Alcotest.test_case "delivers on holey grid" `Quick test_delivery_holey;
    Alcotest.test_case "delivers on exponential chain" `Quick
      test_delivery_expo;
    Alcotest.test_case "stretch envelope" `Quick test_stretch_envelope;
    Alcotest.test_case "identity naming" `Quick test_identity_naming;
    Alcotest.test_case "composes with Thm 1.2 underlying" `Quick
      test_composes_with_scale_free_underlying;
    Alcotest.test_case "observer reports" `Quick test_observer_reports;
    Alcotest.test_case "found_level in range" `Quick
      test_found_level_consistent;
    Alcotest.test_case "tables include underlying" `Quick
      test_table_bits_include_underlying;
    prop_delivery_random ]

let test_min_level_relaxation () =
  (* truncated directories still deliver everywhere; tables shrink;
     far pairs are unaffected *)
  let m = holey () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let full =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  let relaxed =
    Simple_ni.build ~min_level:2 nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  check_all_pairs m (relaxed, naming);
  let sum t =
    let acc = ref 0 in
    for v = 0 to Metric.n m - 1 do
      acc := !acc + Ni_scheme.table_bits t v
    done;
    !acc
  in
  check_bool "tables shrink" true (sum relaxed < sum full);
  (* a pair found at a high level by the full scheme costs the same *)
  let far_pair =
    List.find
      (fun (src, dst) ->
        Ni_route.found_level full.Ni_scheme.lookup ~src
          ~dest_name:naming.Workload.name_of.(dst)
        >= 3)
      (all_pairs (Metric.n m))
  in
  let cost t (src, dst) =
    ((Simple_ni.to_scheme t).Cr_sim.Scheme.route_to_name ~src
       ~dest_name:naming.Workload.name_of.(dst))
      .Cr_sim.Scheme.cost
  in
  check_float "far pair unaffected" (cost full far_pair)
    (cost relaxed far_pair)

let test_min_level_validation () =
  let m = grid6 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:1 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  Alcotest.check_raises "min_level too large"
    (Invalid_argument "Simple_ni.build: min_level out of range") (fun () ->
      ignore
        (Simple_ni.build ~min_level:99 nt ~epsilon:0.5 ~naming
           ~underlying:(Hier_labeled.to_underlying hl)))

let suite =
  suite
  @ [ Alcotest.test_case "min_level relaxation" `Quick
        test_min_level_relaxation;
      Alcotest.test_case "min_level validation" `Quick
        test_min_level_validation ]
