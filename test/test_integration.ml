(* Cross-scheme integration tests: build every scheme on every fixture once
   and check the relationships the paper's results imply between them. *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Hier = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Ni_scheme = Cr_core.Ni_scheme
module Sfni = Cr_core.Scale_free_ni
module Walker = Cr_sim.Walker
module Engine = Cr_serve.Engine

type stack = {
  metric : Metric.t;
  naming : Workload.naming;
  pairs : (int * int) list;
  hier : Hier.t;
  sfl : Sfl.t;
  simple : Simple_ni.t;
  sfni : Sfni.t;
}

let build_stack m =
  let n = Metric.n m in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let naming = Workload.random_naming ~n ~seed:77 in
  let hier = Hier.build nt ~epsilon:0.5 in
  let sfl = Sfl.build nt ~epsilon:0.5 in
  let simple =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier.to_underlying hier)
  in
  let sfni =
    Sfni.build nt ~epsilon:0.5 ~naming ~underlying:(Sfl.to_underlying sfl)
  in
  { metric = m; naming; pairs = Workload.pairs_for ~n ~seed:5 ~budget:600;
    hier; sfl; simple; sfni }

let fixtures () = [ grid6 (); holey (); ring16 (); expo12 () ]

let test_labeled_beats_name_independent () =
  (* knowing the label must never hurt: labeled stretch <= NI stretch on
     aggregate (the NI scheme runs the labeled one underneath) *)
  List.iter
    (fun m ->
      let s = build_stack m in
      let labeled = Stats.measure_labeled m (Sfl.to_underlying s.sfl) s.pairs in
      let ni =
        Stats.measure_name_independent m (Sfni.to_scheme s.sfni) s.naming
          s.pairs
      in
      check_bool "avg: labeled <= NI" true
        (labeled.Stats.avg_stretch <= ni.Stats.avg_stretch +. 1e-9);
      check_bool "max: labeled <= NI" true
        (labeled.Stats.max_stretch <= ni.Stats.max_stretch +. 1e-9))
    (fixtures ())

let test_both_labeled_schemes_agree_on_quality () =
  (* the two labeled schemes realize the same guarantee; their measured
     stretch should be close (identical ring-phase behaviour on these
     fixtures) *)
  List.iter
    (fun m ->
      let s = build_stack m in
      let a = Stats.measure_labeled m (Hier.to_underlying s.hier) s.pairs in
      let b = Stats.measure_labeled m (Sfl.to_underlying s.sfl) s.pairs in
      check_bool "avg within 10%" true
        (Float.abs (a.Stats.avg_stretch -. b.Stats.avg_stretch)
        <= 0.1 *. a.Stats.avg_stretch))
    (fixtures ())

let test_no_fallbacks_anywhere () =
  List.iter
    (fun m ->
      let s = build_stack m in
      List.iter
        (fun (src, dst) ->
          ignore (Scheme.route_labeled m (Sfl.to_underlying s.sfl) ~src ~dst);
          ignore
            ((Sfni.to_scheme s.sfni).Scheme.route_to_name ~src
               ~dest_name:s.naming.Workload.name_of.(dst)))
        s.pairs;
      check_int "sfl fallbacks" 0 (Sfl.fallback_count s.sfl))
    (fixtures ())

let test_labels_consistent_across_schemes () =
  (* both labeled schemes use the netting-tree labels: they must agree *)
  List.iter
    (fun m ->
      let s = build_stack m in
      for v = 0 to Metric.n m - 1 do
        check_int "same labels" (Hier.label s.hier v) (Sfl.label s.sfl v)
      done)
    (fixtures ())

let test_scheme_storage_ordering () =
  (* the NI schemes stack a directory on the labeled scheme, so their
     tables strictly dominate the underlying ones *)
  List.iter
    (fun m ->
      let s = build_stack m in
      for v = 0 to Metric.n m - 1 do
        check_bool "simple > hier" true
          (Ni_scheme.table_bits s.simple v
           > (Hier.to_underlying s.hier).Cr_sim.Scheme.l_table_bits v);
        check_bool "sfni > sfl" true
          (Ni_scheme.table_bits (Sfni.scheme s.sfni) v > Sfl.table_bits s.sfl v)
      done)
    (fixtures ())

let test_cross_composition () =
  (* Thm 1.1's directory over the non-scale-free labeled scheme also works
     (the labeled scheme's walk is the only contract) *)
  let m = ring16 () in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:7 in
  let hier = Hier.build nt ~epsilon:0.5 in
  let sfni =
    Sfni.build nt ~epsilon:0.5 ~naming ~underlying:(Hier.to_underlying hier)
  in
  List.iter
    (fun (src, dst) ->
      let o =
        (Sfni.to_scheme sfni).Scheme.route_to_name ~src
          ~dest_name:naming.Workload.name_of.(dst)
      in
      check_bool "delivers" true (o.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (all_pairs (Metric.n m))

(* Grid.with_holes keeps a 2-node component for this seed: every pairwise
   distance is the minimum, so Delta = 1. Metric.levels stays at 1, which
   puts the singleton top net above level 0 (all nodes); every scheme then
   builds, walks every pair to its destination, and serves the same
   route it walks. *)
let test_degenerate_delta_one () =
  let m =
    Metric.of_graph
      (Cr_graphgen.Grid.with_holes ~side:4 ~hole_fraction:0.2 ~seed:7955)
  in
  check_int "two nodes" 2 (Metric.n m);
  check_float "Delta = 1" 1.0 (Metric.normalized_diameter m);
  check_int "levels" 1 (Metric.levels m);
  let s = build_stack m in
  let e_hier = Engine.compile_hier s.hier in
  let e_sfl = Engine.compile_scale_free_labeled s.sfl in
  let name dst = s.naming.Workload.name_of.(dst) in
  let schemes =
    [ ( "hier",
        (fun w dst -> Hier.walk s.hier w ~dest_label:(Hier.label s.hier dst)),
        e_hier );
      ( "sfl",
        (fun w dst -> Sfl.walk s.sfl w ~dest_label:(Sfl.label s.sfl dst)),
        e_sfl );
      ( "simple-ni",
        (fun w dst -> Ni_scheme.walk s.simple w ~dest_name:(name dst)),
        Engine.compile_simple_ni ~underlying:e_hier s.simple );
      ( "sf-ni",
        (fun w dst ->
          Ni_scheme.walk (Sfni.scheme s.sfni) w ~dest_name:(name dst)),
        Engine.compile_scale_free_ni ~underlying:e_sfl s.sfni ) ]
  in
  List.iter
    (fun (sname, walk, engine) ->
      List.iter
        (fun (src, dst) ->
          let w =
            Walker.create m ~start:src ~max_hops:(Walker.ni_budget (Metric.n m))
          in
          walk w dst;
          check_int (sname ^ ": arrives") dst (Walker.position w);
          let served = Engine.route engine ~src ~dst in
          check_bool (sname ^ ": served cost = walked") true
            (Float.equal served.Scheme.cost (Walker.cost w));
          check_int (sname ^ ": served hops = walked") (Walker.hops w)
            served.Scheme.hops)
        [ (0, 1); (1, 0); (0, 0); (1, 1) ])
    schemes

let suite =
  [ Alcotest.test_case "labeled beats name-independent" `Quick
      test_labeled_beats_name_independent;
    Alcotest.test_case "labeled schemes agree" `Quick
      test_both_labeled_schemes_agree_on_quality;
    Alcotest.test_case "no fallbacks on fixtures" `Quick
      test_no_fallbacks_anywhere;
    Alcotest.test_case "labels consistent" `Quick
      test_labels_consistent_across_schemes;
    Alcotest.test_case "storage ordering" `Quick test_scheme_storage_ordering;
    Alcotest.test_case "cross composition (Thm 1.1 over Lemma 3.1)" `Quick
      test_cross_composition;
    Alcotest.test_case "degenerate metric (Delta = 1)" `Quick
      test_degenerate_delta_one ]
