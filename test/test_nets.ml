(* Tests for r-nets, the 2^i-net hierarchy, zooming sequences, and the
   netting tree (Section 2 structures). *)

open Helpers
module Metric = Cr_metric.Metric
module Rnet = Cr_nets.Rnet
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree

let all_nodes m = List.init (Metric.n m) Fun.id

(* Both r-net properties of [points] over the ground set [over]: every
   node within [r] of a point (covering), and points pairwise at least
   [r] apart (packing). The oracle the greedy nets are checked against. *)
let is_net m ~r ~points ~over =
  List.for_all
    (fun v -> List.exists (fun y -> Metric.dist m v y <= r) points)
    over
  && List.for_all
       (fun y ->
         List.for_all (fun y' -> y = y' || Metric.dist m y y' >= r) points)
       points

let test_greedy_is_net () =
  let m = grid8 () in
  List.iter
    (fun r ->
      let net = Rnet.greedy m ~r ~candidates:(all_nodes m) ~seed:[] in
      check_bool
        (Printf.sprintf "greedy %g-net is a net" r)
        true
        (is_net m ~r ~points:net ~over:(all_nodes m)))
    [ 1.0; 2.0; 4.0; 8.0 ]

let test_greedy_respects_seed () =
  let m = grid8 () in
  let seed = [ 0; 63 ] in
  let net = Rnet.greedy m ~r:2.0 ~candidates:(all_nodes m) ~seed in
  List.iter
    (fun s -> check_bool "seed kept" true (List.mem s net))
    seed

let test_hierarchy_nesting () =
  let m = holey () in
  let h = Hierarchy.build m in
  let top = Hierarchy.top_level h in
  check_int "top net singleton" 1 (List.length (Hierarchy.net h top));
  check_int "level 0 is V" (Metric.n m) (List.length (Hierarchy.net h 0));
  for i = 0 to top - 1 do
    let upper = Hierarchy.net h (i + 1) in
    List.iter
      (fun v ->
        check_bool
          (Printf.sprintf "Y_%d subset of Y_%d" (i + 1) i)
          true
          (Hierarchy.mem h ~level:i v))
      upper
  done

let test_hierarchy_nets_valid () =
  let m = grid8 () in
  let h = Hierarchy.build m in
  for i = 1 to Hierarchy.top_level h - 1 do
    check_bool
      (Printf.sprintf "Y_%d is a 2^%d-net" i i)
      true
      (is_net m ~r:(Hierarchy.net_radius i) ~points:(Hierarchy.net h i)
         ~over:(all_nodes m))
  done

(* sum_{k=1..i} d(u(k-1), u(k)): the exact cost of walking u's zooming
   sequence, its netting-tree ancestors, up to level [i]. *)
let climb_cost m nt u i =
  let total = ref 0.0 in
  for k = 1 to i do
    total :=
      !total
      +. Metric.dist m
           (Netting_tree.ancestor nt u ~level:(k - 1))
           (Netting_tree.ancestor nt u ~level:k)
  done;
  !total

let test_zoom_eqn2 () =
  (* Eqn (2): climb cost up to level i is < 2^(i+1). *)
  let m = holey () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let top = Hierarchy.top_level h in
  for u = 0 to Metric.n m - 1 do
    for i = 0 to top do
      check_bool "climb cost bound" true
        (climb_cost m nt u i < Float.pow 2.0 (float_of_int (i + 1)))
    done
  done

let test_zoom_membership () =
  let m = grid6 () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  for u = 0 to Metric.n m - 1 do
    for i = 0 to Hierarchy.top_level h do
      check_bool "u(i) in Y_i" true
        (Hierarchy.mem h ~level:i (Netting_tree.ancestor nt u ~level:i))
    done
  done;
  List.iter
    (fun level ->
      Alcotest.check_raises "level out of range"
        (Invalid_argument "Netting_tree.ancestor: level out of range")
        (fun () -> ignore (Netting_tree.ancestor nt 0 ~level)))
    [ -1; Hierarchy.top_level h + 1 ]

let test_netting_tree_labels_bijective () =
  let m = holey () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let n = Metric.n m in
  let seen = Array.make n false in
  for v = 0 to n - 1 do
    let l = Netting_tree.label nt v in
    check_bool "label in range" true (l >= 0 && l < n);
    check_bool "label unique" false seen.(l);
    seen.(l) <- true;
    check_int "inverse" v (Netting_tree.node_of_label nt l)
  done

let test_netting_tree_range_iff_zoom () =
  (* The central property: l(u) in Range(x, i) iff x = u(i). *)
  let m = holey () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let top = Hierarchy.top_level h in
  for u = 0 to Metric.n m - 1 do
    let l = Netting_tree.label nt u in
    for i = 0 to top do
      List.iter
        (fun x ->
          let covers =
            Netting_tree.in_range (Netting_tree.range nt ~level:i x) l
          in
          check_bool
            (Printf.sprintf "range iff zoom (u=%d i=%d x=%d)" u i x)
            (Netting_tree.ancestor nt u ~level:i = x) covers)
        (Hierarchy.net h i)
    done
  done

let test_netting_tree_root_range () =
  let m = grid6 () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let top = Hierarchy.top_level h in
  match Hierarchy.net h top with
  | [ root ] ->
    let r = Netting_tree.range nt ~level:top root in
    check_int "root lo" 0 r.Netting_tree.lo;
    check_int "root hi" (Metric.n m - 1) r.Netting_tree.hi
  | _ -> Alcotest.fail "top net not singleton"

let test_netting_tree_parent_child () =
  let m = grid6 () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let top = Hierarchy.top_level h in
  for i = 0 to top - 1 do
    List.iter
      (fun x ->
        let p = Netting_tree.parent nt ~level:i x in
        check_bool "parent in level above" true
          (Hierarchy.mem h ~level:(i + 1) p);
        check_bool "x among parent's children" true
          (List.mem x (Netting_tree.children nt ~level:(i + 1) p)))
      (Hierarchy.net h i)
  done;
  (* the parent pointers are read from the ancestor rows, and keep their
     errors *)
  let outside =
    List.find
      (fun v -> not (Hierarchy.mem h ~level:1 v))
      (List.init (Metric.n m) Fun.id)
  in
  Alcotest.check_raises "not a net point"
    (Invalid_argument "Netting_tree.parent: not a net point") (fun () ->
      ignore (Netting_tree.parent nt ~level:1 outside));
  Alcotest.check_raises "top level"
    (Invalid_argument "Netting_tree.parent: top level has no parent")
    (fun () -> ignore (Netting_tree.parent nt ~level:top 0))

let test_lemma_2_2_net_points_in_ball () =
  (* Lemma 2.2: for an r-net Y, |B_u(r') ∩ Y| <= (4 r'/r)^alpha. The grid's
     doubling dimension witness is ~3, so check against that exponent. *)
  let m = grid8 () in
  let alpha = Cr_metric.Doubling.estimate m in
  let h = Hierarchy.build m in
  for i = 1 to Hierarchy.top_level h do
    let r = Hierarchy.net_radius i in
    let net = Hierarchy.net h i in
    List.iter
      (fun r_mult ->
        let r' = r *. r_mult in
        for u = 0 to Metric.n m - 1 do
          let count =
            List.length
              (List.filter (fun y -> Metric.dist m u y <= r') net)
          in
          let bound = Float.pow (4.0 *. r' /. r) alpha in
          check_bool
            (Printf.sprintf "Lemma 2.2 at u=%d i=%d r'=%g: %d <= %.0f" u i r'
               count bound)
            true
            (float_of_int count <= bound)
        done)
      [ 1.0; 2.0; 4.0 ]
  done

(* Property tests over random geometric metrics *)

let gen_metric =
  QCheck2.Gen.(
    let* n = int_range 8 40 in
    let* seed = int_range 0 5_000 in
    return (Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed)))

let prop_hierarchy_packing =
  qcheck_case ~count:25 "nets: packing distance at every level" gen_metric
    (fun m ->
      let h = Hierarchy.build m in
      let ok = ref true in
      for i = 1 to Hierarchy.top_level h do
        let net = Hierarchy.net h i in
        List.iter
          (fun y ->
            List.iter
              (fun y' ->
                if y < y'
                   && Metric.dist m y y' < Hierarchy.net_radius i -. 1e-9
                then ok := false)
              net)
          net
      done;
      !ok)

let prop_zoom_step_distance =
  qcheck_case ~count:25 "nets: zoom steps within 2^i" gen_metric (fun m ->
      let h = Hierarchy.build m in
      let nt = Netting_tree.build h in
      let ok = ref true in
      for u = 0 to Metric.n m - 1 do
        for i = 1 to Hierarchy.top_level h do
          if
            Metric.dist m
              (Netting_tree.ancestor nt u ~level:(i - 1))
              (Netting_tree.ancestor nt u ~level:i)
            > Hierarchy.net_radius i +. 1e-9
          then ok := false
        done
      done;
      !ok)

(* The hierarchy against the matrix algorithm it is built without: per
   level, Rnet.greedy over every node seeded with the coarser net, and
   per node, Metric.nearest_in over the level's net. *)
let prop_hierarchy_matches_matrix_greedy =
  qcheck_case "hierarchy: build = matrix greedy and nearest_in reference"
    family_gen (fun params ->
      let m = Metric.of_graph (family_graph params) in
      let h = Hierarchy.build m in
      let top = Metric.levels m in
      let nodes = all_nodes m in
      let nets = Array.make (top + 1) nodes in
      nets.(top) <- [ 0 ];
      for i = top - 1 downto 1 do
        nets.(i) <-
          Rnet.greedy m ~r:(Hierarchy.net_radius i) ~candidates:nodes
            ~seed:nets.(i + 1)
      done;
      Hierarchy.top_level h = top
      && List.for_all
           (fun i ->
             Hierarchy.net h i = nets.(i)
             && List.for_all
                  (fun v ->
                    Hierarchy.mem h ~level:i v = List.mem v nets.(i)
                    && Hierarchy.nearest_net_point h ~level:i v
                       = Metric.nearest_in m v nets.(i))
                  nodes)
           (List.init (top + 1) Fun.id))

let prop_ranges_partition_levels =
  qcheck_case ~count:25 "nets: ranges at a level partition labels" gen_metric
    (fun m ->
      let h = Hierarchy.build m in
      let nt = Netting_tree.build h in
      let n = Metric.n m in
      let ok = ref true in
      for i = 0 to Hierarchy.top_level h do
        let covered = Array.make n 0 in
        List.iter
          (fun x ->
            let r = Netting_tree.range nt ~level:i x in
            for l = r.Netting_tree.lo to r.Netting_tree.hi do
              covered.(l) <- covered.(l) + 1
            done)
          (Hierarchy.net h i);
        Array.iter (fun c -> if c <> 1 then ok := false) covered
      done;
      !ok)

let suite =
  [ Alcotest.test_case "greedy r-net properties" `Quick test_greedy_is_net;
    Alcotest.test_case "greedy keeps seed" `Quick test_greedy_respects_seed;
    Alcotest.test_case "hierarchy nesting" `Quick test_hierarchy_nesting;
    Alcotest.test_case "hierarchy nets valid" `Quick test_hierarchy_nets_valid;
    Alcotest.test_case "zoom climb cost (Eqn 2)" `Quick test_zoom_eqn2;
    Alcotest.test_case "zoom membership" `Quick test_zoom_membership;
    Alcotest.test_case "netting labels bijective" `Quick
      test_netting_tree_labels_bijective;
    Alcotest.test_case "range iff zoom step" `Quick
      test_netting_tree_range_iff_zoom;
    Alcotest.test_case "root range covers all" `Quick
      test_netting_tree_root_range;
    Alcotest.test_case "parent/child consistency" `Quick
      test_netting_tree_parent_child;
    Alcotest.test_case "Lemma 2.2 net points in balls" `Quick
      test_lemma_2_2_net_points_in_ball;
    prop_hierarchy_packing;
    prop_zoom_step_distance;
    prop_ranges_partition_levels;
    prop_hierarchy_matches_matrix_greedy ]
