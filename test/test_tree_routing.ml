(* Tests for rooted trees and interval routing. *)

open Helpers
module Tree = Cr_tree.Tree
module Interval_routing = Cr_tree.Interval_routing

(* A small fixed tree:
        10
       /  \
      4    20
     / \     \
    1   7    30   with weights 1,2,3,4,5 respectively *)
let fixture_nodes = [ 1; 4; 7; 10; 20; 30 ]

let fixture () =
  Tree.of_parents ~root:10 ~nodes:fixture_nodes
    ~parent:(function
      | 4 -> 10 | 20 -> 10 | 1 -> 4 | 7 -> 4 | 30 -> 20 | _ -> assert false)
    ~weight:(function
      | 4 -> 1.0 | 20 -> 2.0 | 1 -> 3.0 | 7 -> 4.0 | 30 -> 5.0
      | _ -> assert false)

(* The u-v path cost through the lowest common ancestor, read off the
   parent pointers: the oracle interval routing's delivered costs are
   checked against. *)
let tree_path_cost t u v =
  let rec up x acc =
    match Tree.parent t x with
    | None -> [ (x, acc) ]
    | Some (p, w) -> (x, acc) :: up p (acc +. w)
  in
  let from_v = up v 0.0 in
  let rec meet = function
    | (x, cu) :: rest -> (
      match List.assoc_opt x from_v with
      | Some cv -> cu +. cv
      | None -> meet rest)
    | [] -> invalid_arg "tree_path_cost: no common ancestor"
  in
  meet (up u 0.0)

let test_tree_shape () =
  let t = fixture () in
  check_int "size" 6 (Tree.size t);
  check_int "root" 10 (Tree.root t);
  Alcotest.(check (list (pair int (float 1e-9))))
    "children of 4" [ (1, 3.0); (7, 4.0) ] (Tree.children t 4);
  check_bool "root has no parent" true (Tree.parent t 10 = None)

let test_tree_costs () =
  let t = fixture () in
  check_float "path 1-7" 7.0 (tree_path_cost t 1 7);
  check_float "path 1-30" 11.0 (tree_path_cost t 1 30);
  check_float "path self" 0.0 (tree_path_cost t 4 4)

let test_tree_rejects_cycle () =
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Tree.of_parents: parent pointers do not form a tree")
    (fun () ->
      ignore
        (Tree.of_parents ~root:0 ~nodes:[ 0; 1; 2 ]
           ~parent:(function 1 -> 2 | 2 -> 1 | _ -> assert false)
           ~weight:(fun _ -> 1.0)))

let test_tree_rejects_bad_input () =
  let build ~root ~parent ~weight () =
    ignore (Tree.of_parents ~root ~nodes:[ 0; 1; 2 ] ~parent ~weight)
  in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Tree.of_parents: negative weight")
    (build ~root:0
       ~parent:(fun _ -> 0)
       ~weight:(fun v -> if v = 2 then -1.0 else 1.0));
  Alcotest.check_raises "parent outside the node set"
    (Invalid_argument "Tree.of_parents: parent outside node set")
    (build ~root:0 ~parent:(function 2 -> 5 | _ -> 0) ~weight:(fun _ -> 1.0));
  Alcotest.check_raises "root outside the node set"
    (Invalid_argument "Tree.of_parents: root not among nodes")
    (build ~root:3 ~parent:(fun _ -> 0) ~weight:(fun _ -> 1.0));
  Alcotest.check_raises "empty node set"
    (Invalid_argument "Tree.of_parents: empty node set")
    (fun () ->
      ignore
        (Tree.of_parents ~root:0 ~nodes:[] ~parent:(fun _ -> 0)
           ~weight:(fun _ -> 1.0)))

let test_interval_routing_all_pairs () =
  let t = fixture () in
  let ir = Interval_routing.build t in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let path, cost =
              Interval_routing.route ir ~src
                ~dest_label:(Interval_routing.label ir dst)
            in
            check_int "route ends at dst" dst (List.nth path (List.length path - 1));
            check_float "route cost = tree path cost"
              (tree_path_cost t src dst) cost
          end)
        fixture_nodes)
    fixture_nodes

let test_interval_labels () =
  let t = fixture () in
  let ir = Interval_routing.build t in
  check_int "label bits" 3 (Interval_routing.label_bits ir);
  Alcotest.(check (list int)) "labels are 0 .. n-1" (List.init 6 Fun.id)
    (List.sort compare (List.map (Interval_routing.label ir) fixture_nodes))

let test_interval_routing_rejects_foreign () =
  let t = fixture () in
  let ir = Interval_routing.build t in
  Alcotest.check_raises "node outside the tree has no label"
    (Invalid_argument "Interval_routing.label: node not in tree")
    (fun () -> ignore (Interval_routing.label ir 99));
  (* a label past the last DFS number climbs to the root and stops there *)
  Alcotest.check_raises "label outside the tree"
    (Invalid_argument "Interval_routing.next_hop: label outside tree")
    (fun () -> ignore (Interval_routing.route ir ~src:1 ~dest_label:6))

(* Interval routing stores one interval and port per child: on a star the
   center's table grows with its degree while a leaf's stays at its own
   interval and parent port (the degree-independent encoding of
   Fraigniaud-Gavoille and Thorup-Zwick is not implemented). Leaf-to-leaf
   routes still cross the center. *)
let test_interval_tables_on_star () =
  let star =
    Tree.of_parents ~root:0
      ~nodes:(List.init 65 Fun.id)
      ~parent:(fun _ -> 0)
      ~weight:(fun _ -> 1.0)
  in
  let ir = Interval_routing.build star in
  let label_bits = Interval_routing.label_bits ir in
  check_int "label bits" 7 label_bits;
  check_bool "center table grows with degree" true
    (Interval_routing.table_bits ir 0 > 64 * label_bits);
  List.iter
    (fun leaf ->
      check_bool "leaf table holds its interval and a port" true
        (Interval_routing.table_bits ir leaf <= 3 * label_bits))
    (List.init 64 succ);
  let path, cost =
    Interval_routing.route ir ~src:5 ~dest_label:(Interval_routing.label ir 9)
  in
  Alcotest.(check (list int)) "leaf to leaf via center" [ 5; 0; 9 ] path;
  check_float "leaf to leaf cost" 2.0 cost

let gen_tree =
  QCheck2.Gen.(
    let* n = int_range 2 60 in
    let* seed = int_range 0 5_000 in
    return
      (let rng = Cr_graphgen.Rng.create seed in
       Tree.of_parents ~root:0 ~nodes:(List.init n Fun.id)
         ~parent:(fun v -> Cr_graphgen.Rng.int rng v)
         ~weight:(fun _ -> 1.0 +. Cr_graphgen.Rng.float rng 3.0)))

let prop_interval_routing_optimal =
  qcheck_case ~count:30 "interval routing: optimal on random trees" gen_tree
    (fun t ->
      let ir = Interval_routing.build t in
      let nodes = List.init (Tree.size t) Fun.id in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              src = dst
              ||
              let path, cost =
                Interval_routing.route ir ~src
                  ~dest_label:(Interval_routing.label ir dst)
              in
              List.nth path (List.length path - 1) = dst
              && Float.abs (cost -. tree_path_cost t src dst) < 1e-9)
            nodes)
        nodes)

(* Labels are DFS numbers: a permutation of 0 .. k-1 of ceil(log2 k) bits,
   each parent numbered before its children. *)
let prop_interval_labels_dfs =
  qcheck_case ~count:50 "interval labels: DFS numbers on random trees"
    gen_tree
    (fun t ->
      let ir = Interval_routing.build t in
      let k = Tree.size t in
      let nodes = List.init k Fun.id in
      let label = Interval_routing.label ir in
      List.sort Int.compare (List.map label nodes) = nodes
      && Interval_routing.label_bits ir = Cr_metric.Bits.ceil_log2 k
      && List.for_all
           (fun v ->
             List.for_all (fun (c, _) -> label v < label c) (Tree.children t v))
           nodes)

let suite =
  [ Alcotest.test_case "tree shape" `Quick test_tree_shape;
    Alcotest.test_case "tree costs" `Quick test_tree_costs;
    Alcotest.test_case "tree rejects cycles" `Quick test_tree_rejects_cycle;
    Alcotest.test_case "tree rejects bad input" `Quick
      test_tree_rejects_bad_input;
    Alcotest.test_case "interval routing all pairs" `Quick
      test_interval_routing_all_pairs;
    Alcotest.test_case "interval labels" `Quick test_interval_labels;
    Alcotest.test_case "interval tables on a star" `Quick
      test_interval_tables_on_star;
    Alcotest.test_case "interval routing rejects foreign nodes and labels"
      `Quick test_interval_routing_rejects_foreign;
    prop_interval_routing_optimal;
    prop_interval_labels_dfs ]
