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
      best := max !best (Cr_core.Ni_scheme.table_bits (Sfni.scheme t) v)
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
      (Cr_core.Ni_route.found_level (Sfni.scheme t).Cr_core.Ni_scheme.lookup
         ~src:0 ~dest_name:naming.Workload.name_of.(dst)
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

(* Theorem 1.1's covering choice as the build made it over member
   lists: for net point u at level i, B_u(2^i/eps) as a [Metric.ball]
   list, each packed ball's extended ball (its center's 2^(j+2) nearest,
   at most n) as a [Hashtbl], and the per-member checks; the least j
   wins, then the least d(u, c), then the earlier ball. Returns every
   node's (i, j, c) links, level-increasing, and the type-A and type-B
   tree counts. *)
let covering_reference m ~epsilon =
  let n = Metric.n m in
  let h = Hierarchy.build m in
  let eps_eff = Cr_core.Ni_scheme.effective_epsilon epsilon in
  let packed_levels =
    Array.map
      (fun packing ->
        let j = Cr_packing.Ball_packing.size_exponent packing in
        List.map
          (fun (ball : Cr_packing.Ball_packing.ball) ->
            let ext = Metric.nearest_k m ball.center (min (1 lsl (j + 2)) n) in
            let set = Hashtbl.create (List.length ext) in
            List.iter (fun v -> Hashtbl.replace set v ()) ext;
            (j, ball, set))
          (Cr_packing.Ball_packing.balls packing))
      (Cr_packing.Ball_packing.build_all m)
  in
  let links = Array.make n [] and type_a = ref 0 in
  for i = 0 to Hierarchy.top_level h do
    let two_i = Float.pow 2.0 (float_of_int i) in
    let radius = two_i /. eps_eff and outer = two_i *. ((1.0 /. eps_eff) +. 1.0) in
    List.iter
      (fun u ->
        let members = Metric.ball m ~center:u ~radius in
        let covers (_, (ball : Cr_packing.Ball_packing.ball), set) =
          Metric.dist m u ball.center <= outer
          && Hashtbl.length set >= List.length members
          && Array.for_all (fun x -> Metric.dist m u x <= outer) ball.members
          && List.for_all (fun y -> Hashtbl.mem set y) members
        in
        let best =
          Array.fold_left
            (fun found level ->
              match found with
              | Some _ -> found
              | None ->
                List.fold_left
                  (fun acc ((_, (ball : Cr_packing.Ball_packing.ball), _) as b) ->
                    match acc with
                    | Some (_, (b' : Cr_packing.Ball_packing.ball), _)
                      when Metric.dist m u ball.center
                           >= Metric.dist m u b'.center ->
                      acc
                    | _ -> Some b)
                  None (List.filter covers level))
            None packed_levels
        in
        match best with
        | Some (j, ball, _) -> links.(u) <- links.(u) @ [ (i, j, ball.center) ]
        | None -> incr type_a)
      (Hierarchy.net h i)
  done;
  ( links,
    !type_a,
    Array.fold_left (fun acc level -> acc + List.length level) 0 packed_levels )

let prop_covering_is_reference =
  qcheck_case ~count:25 "scale-free NI: covering choice = list reference"
    QCheck2.Gen.(pair cover_family_gen (oneofl [ 0.2; 0.5 ]))
    (fun (fam, epsilon) ->
      let m = Metric.of_graph (cover_family_graph fam) in
      QCheck2.assume (Metric.n m >= 8);
      let t, _ = build ~epsilon m in
      let links, type_a, type_b = covering_reference m ~epsilon in
      Sfni.type_a_count t = type_a
      && Sfni.type_b_count t = type_b
      && List.for_all
           (fun u -> Sfni.h_link_balls t u = links.(u))
           (List.init (Metric.n m) Fun.id))

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
    prop_delivery_random;
    prop_covering_is_reference ]
