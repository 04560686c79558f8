(* Tests for the Packing Lemma (2.3) construction and Voronoi trees. *)

open Helpers
module Metric = Cr_metric.Metric
module Ball_packing = Cr_packing.Ball_packing
module Voronoi = Cr_packing.Voronoi

let test_packing_sizes () =
  let m = grid8 () in
  let packs = Ball_packing.build_all m in
  Array.iter
    (fun lv ->
      let j = Ball_packing.size_exponent lv in
      List.iter
        (fun (b : Ball_packing.ball) ->
          check_int
            (Printf.sprintf "ball at scale %d has 2^%d members" j j)
            (1 lsl j)
            (Array.length b.members))
        (Ball_packing.balls lv))
    packs

let test_packing_disjoint () =
  let m = holey () in
  let packs = Ball_packing.build_all m in
  Array.iter
    (fun lv ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (b : Ball_packing.ball) ->
          Array.iter
            (fun v ->
              check_bool "balls disjoint" false (Hashtbl.mem seen v);
              Hashtbl.replace seen v ())
            b.members)
        (Ball_packing.balls lv))
    packs

let test_packing_property2 () =
  (* Lemma 2.3(2): for every u there is a packed ball with
     r_c(j) <= r_u(j) and d(u, c) <= 2 r_u(j). *)
  let m = holey () in
  let packs = Ball_packing.build_all m in
  Array.iter
    (fun lv ->
      let j = Ball_packing.size_exponent lv in
      for u = 0 to Metric.n m - 1 do
        let r_u = Metric.radius_of_size m u (1 lsl j) in
        let b = Ball_packing.covering_ball lv u in
        check_bool "witness radius" true (b.radius <= r_u +. 1e-9);
        check_bool "witness distance" true
          (Metric.dist m u b.center <= (2.0 *. r_u) +. 1e-9)
      done)
    packs

let test_packing_level0 () =
  (* scale 0: every ball is a single node, so the packing is all of V *)
  let m = grid6 () in
  let lv = Ball_packing.build_level m ~j:0 in
  check_int "n singleton balls" (Metric.n m)
    (List.length (Ball_packing.balls lv))

let test_packing_center_lookup () =
  let m = grid6 () in
  let lv = Ball_packing.build_level m ~j:2 in
  List.iter
    (fun (b : Ball_packing.ball) ->
      match Ball_packing.ball_of_center lv b.center with
      | Some b' -> check_int "center roundtrip" b.center b'.center
      | None -> Alcotest.fail "packed ball not found by center")
    (Ball_packing.balls lv)

let test_voronoi_partition () =
  let m = grid8 () in
  let centers = [ 0; 7; 56; 63 ] in
  let v = Voronoi.build m ~centers in
  let total =
    List.fold_left
      (fun acc c -> acc + List.length (Voronoi.cell v ~center:c))
      0 centers
  in
  check_int "cells partition V" (Metric.n m) total;
  for u = 0 to Metric.n m - 1 do
    let c = Voronoi.owner v u in
    List.iter
      (fun c' ->
        check_bool "owner is nearest center" true
          (Metric.dist m u c <= Metric.dist m u c' +. 1e-9))
      centers
  done

let test_voronoi_tree_edges_are_graph_edges () =
  let m = holey () in
  let centers = [ 0; Metric.n m - 1 ] in
  let v = Voronoi.build m ~centers in
  let g = Metric.graph m in
  for u = 0 to Metric.n m - 1 do
    let p = Voronoi.parent v u in
    if p >= 0 then begin
      check_bool "parent is neighbor" true
        (Cr_metric.Graph.edge_weight g u p <> None);
      check_int "parent same cell" (Voronoi.owner v u) (Voronoi.owner v p)
    end
  done

let test_voronoi_distances () =
  let m = grid6 () in
  let centers = [ 0; 35 ] in
  let v = Voronoi.build m ~centers in
  for u = 0 to Metric.n m - 1 do
    check_float "dist to owner" (Metric.dist m u (Voronoi.owner v u))
      (Voronoi.dist_to_center v u)
  done

let gen_metric =
  QCheck2.Gen.(
    let* n = int_range 8 40 in
    let* seed = int_range 0 5_000 in
    return (Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed)))

let prop_packing_maximal =
  qcheck_case ~count:20 "packing: greedy is maximal" gen_metric (fun m ->
      let packs = Ball_packing.build_all m in
      Array.for_all
        (fun lv ->
          let j = Ball_packing.size_exponent lv in
          (* every node's candidate ball intersects some packed ball *)
          List.init (Metric.n m) Fun.id
          |> List.for_all (fun u ->
                 let mine = Metric.nearest_k m u (1 lsl j) in
                 List.exists
                   (fun (b : Ball_packing.ball) ->
                     List.exists (fun x -> Ball_packing.mem_ball b x) mine)
                   (Ball_packing.balls lv)))
        packs)

(* The Packing Lemma greedy written out with brute-force sorts: each
   node's candidate is its 2^j nearest nodes by (distance, id), candidates
   are scanned by (radius, id), a candidate disjoint from every packed ball
   is packed, and a node's witness is its own ball when packed, else the
   packed ball holding the first of its members already taken. *)
let reference_level m j =
  let n = Metric.n m in
  let size = 1 lsl j in
  let members = Array.init n (fun u -> take size (brute_order m u)) in
  let radius =
    Array.init n (fun u ->
        List.nth
          (List.sort Float.compare (List.init n (Metric.dist m u)))
          (size - 1))
  in
  let scan =
    List.sort
      (fun a b ->
        let c = Float.compare radius.(a) radius.(b) in
        if c <> 0 then c else Int.compare a b)
      (List.init n Fun.id)
  in
  let holder = Array.make n (-1) in  (* center of the packed ball holding v *)
  let witness = Array.make n (-1) in
  let packed = ref [] in
  List.iter
    (fun u ->
      match List.find_opt (fun v -> holder.(v) >= 0) members.(u) with
      | Some v -> witness.(u) <- holder.(v)
      | None ->
        packed := (u, radius.(u), members.(u)) :: !packed;
        List.iter (fun v -> holder.(v) <- u) members.(u);
        witness.(u) <- u)
    scan;
  (List.rev !packed, witness)

let prop_packing_reference_greedy =
  qcheck_case ~count:30 "packing: build_all = brute-force reference greedy"
    family_gen (fun fam ->
      let m = Metric.of_graph (family_graph fam) in
      let n = Metric.n m in
      let levels = Ball_packing.build_all m in
      let rec top j = if 1 lsl (j + 1) <= n then top (j + 1) else j in
      let same_ball (b : Ball_packing.ball) (c, r, members) =
        b.center = c && Float.equal b.radius r
        && Array.to_list b.members = members
      in
      Array.length levels = top 0 + 1
      && List.for_all
           (fun (j, lv) ->
             let packed, witness = reference_level m j in
             let balls = Ball_packing.balls lv in
             Ball_packing.size_exponent lv = j
             && List.compare_lengths balls packed = 0
             && List.for_all2 same_ball balls packed
             && List.for_all
                  (fun u ->
                    (Ball_packing.covering_ball lv u).center = witness.(u))
                  (List.init n Fun.id))
           (List.mapi (fun j lv -> (j, lv)) (Array.to_list levels)))

let prop_voronoi_prefix_closed =
  qcheck_case ~count:20 "voronoi: cells prefix-closed on random centers"
    QCheck2.Gen.(
      let* n = int_range 10 40 in
      let* seed = int_range 0 5_000 in
      let* k = int_range 1 5 in
      return (n, seed, k))
    (fun (n, seed, k) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let rng = Cr_graphgen.Rng.create (seed + 99) in
      let centers =
        List.sort_uniq compare
          (List.init k (fun _ -> Cr_graphgen.Rng.int rng n))
      in
      let v = Voronoi.build m ~centers in
      List.init n Fun.id
      |> List.for_all (fun u ->
             let p = Voronoi.parent v u in
             p < 0 || Voronoi.owner v u = Voronoi.owner v p))

let suite =
  [ Alcotest.test_case "ball sizes exact" `Quick test_packing_sizes;
    Alcotest.test_case "balls disjoint" `Quick test_packing_disjoint;
    Alcotest.test_case "packing property 2" `Quick test_packing_property2;
    Alcotest.test_case "scale-0 packing" `Quick test_packing_level0;
    Alcotest.test_case "center lookup" `Quick test_packing_center_lookup;
    Alcotest.test_case "voronoi partition" `Quick test_voronoi_partition;
    Alcotest.test_case "voronoi tree edges" `Quick
      test_voronoi_tree_edges_are_graph_edges;
    Alcotest.test_case "voronoi distances" `Quick test_voronoi_distances;
    prop_packing_maximal;
    prop_packing_reference_greedy;
    prop_voronoi_prefix_closed ]
