(* Tests for rooted trees, interval routing, and heavy paths. *)

open Helpers
module Tree = Cr_tree.Tree
module Interval_routing = Cr_tree.Interval_routing
module Heavy_path = Cr_tree.Heavy_path

(* A small fixed tree:
        10
       /  \
      4    20
     / \     \
    1   7    30   with weights 1,2,3,4,5 respectively *)
let fixture () =
  Tree.of_parents ~root:10 ~nodes:[ 1; 4; 7; 10; 20; 30 ]
    ~parent:(function
      | 4 -> 10 | 20 -> 10 | 1 -> 4 | 7 -> 4 | 30 -> 20 | _ -> assert false)
    ~weight:(function
      | 4 -> 1.0 | 20 -> 2.0 | 1 -> 3.0 | 7 -> 4.0 | 30 -> 5.0
      | _ -> assert false)

(* The u-v path cost through the lowest common ancestor, read off the
   parent pointers: the oracle the routers' delivered costs are checked
   against. *)
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
  check_int "degree of 4" 3 (Tree.degree t 4);
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
        (Tree.nodes t))
    (Tree.nodes t)

let test_interval_labels () =
  let t = fixture () in
  let ir = Interval_routing.build t in
  check_int "label bits" 3 (Interval_routing.label_bits ir);
  Alcotest.(check (list int)) "labels are 0 .. n-1" (List.init 6 Fun.id)
    (List.sort compare (List.map (Interval_routing.label ir) (Tree.nodes t)))

(* The light depth of [v], read off parent pointers and heavy children:
   the number of light edges on the root-to-[v] path. *)
let light_depth t hp v =
  let rec up v acc =
    match Tree.parent t v with
    | None -> acc
    | Some (p, _) ->
      up p (if Heavy_path.heavy_child hp p = Some v then acc else acc + 1)
  in
  up v 0

let max_light_depth t hp =
  List.fold_left (fun acc v -> max acc (light_depth t hp v)) 0 (Tree.nodes t)

let test_heavy_path_fixture () =
  let t = fixture () in
  let hp = Heavy_path.build t in
  check_bool "heavy child of 10" true (Heavy_path.heavy_child hp 10 = Some 4);
  check_bool "heavy child of 20" true (Heavy_path.heavy_child hp 20 = Some 30);
  (* 20 hangs off the root by a light edge and 30 below it by a heavy
     one; under 4 one of 1 and 7 is light: no path crosses two light
     edges, and the root's light depth is 0 *)
  check_int "light depth of leaf 30" 1 (light_depth t hp 30);
  check_int "max light depth" 1 (Heavy_path.max_light_depth hp)

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
      let nodes = Tree.nodes t in
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

let prop_heavy_path_log_bound =
  qcheck_case ~count:50 "heavy path: light depth <= floor(log2 n)" gen_tree
    (fun t ->
      let hp = Heavy_path.build t in
      let bound =
        int_of_float (Float.log2 (float_of_int (Tree.size t)))
      in
      Heavy_path.max_light_depth hp = max_light_depth t hp
      && Heavy_path.max_light_depth hp <= bound)

module Compact = Cr_tree.Compact_tree_routing

let test_compact_routing_fixture () =
  let t = fixture () in
  let cr = Compact.build t in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let path, cost = Compact.route cr ~src ~dest:(Compact.label cr dst) in
            check_int "compact route ends at dst" dst
              (List.nth path (List.length path - 1));
            check_float "compact route cost optimal"
              (tree_path_cost t src dst) cost
          end)
        (Tree.nodes t))
    (Tree.nodes t)

let test_compact_degree_independent_tables () =
  (* on a star, interval routing pays per child; heavy-path routing does
     not *)
  let star =
    Tree.of_parents ~root:0
      ~nodes:(List.init 65 Fun.id)
      ~parent:(fun _ -> 0)
      ~weight:(fun _ -> 1.0)
  in
  let ir = Interval_routing.build star in
  let cr = Compact.build star in
  check_bool "interval center table grows with degree" true
    (Interval_routing.table_bits ir 0 > 64 * 7);
  check_bool "compact center table small" true
    (Compact.table_bits cr 0 < 10 * 7);
  (* and it still routes center -> leaf and leaf -> leaf *)
  let path, _ = Compact.route cr ~src:5 ~dest:(Compact.label cr 9) in
  Alcotest.(check (list int)) "leaf to leaf via center" [ 5; 0; 9 ] path

let prop_compact_equals_interval =
  qcheck_case ~count:30 "compact routing = interval routing on random trees"
    gen_tree
    (fun t ->
      let ir = Interval_routing.build t in
      let cr = Compact.build t in
      let nodes = Tree.nodes t in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              src = dst
              ||
              let p1, c1 =
                Interval_routing.route ir ~src
                  ~dest_label:(Interval_routing.label ir dst)
              in
              let p2, c2 = Compact.route cr ~src ~dest:(Compact.label cr dst) in
              p1 = p2 && Float.abs (c1 -. c2) < 1e-9)
            nodes)
        nodes)

let prop_compact_label_size =
  qcheck_case ~count:50 "compact labels are O(log^2 n) bits" gen_tree
    (fun t ->
      let cr = Compact.build t in
      let k = Tree.size t in
      let log_k = float_of_int (Cr_metric.Bits.ceil_log2 k) in
      (* (2 * light-depth + 1) ids + count byte *)
      float_of_int (Compact.max_label_bits cr)
      <= (2.0 *. log_k *. log_k) +. log_k +. 8.0 +. 1.0)

let suite =
  [ Alcotest.test_case "tree shape" `Quick test_tree_shape;
    Alcotest.test_case "compact routing on fixture" `Quick
      test_compact_routing_fixture;
    Alcotest.test_case "compact tables degree-independent" `Quick
      test_compact_degree_independent_tables;
    prop_compact_equals_interval;
    prop_compact_label_size;
    Alcotest.test_case "tree costs" `Quick test_tree_costs;
    Alcotest.test_case "tree rejects cycles" `Quick test_tree_rejects_cycle;
    Alcotest.test_case "interval routing all pairs" `Quick
      test_interval_routing_all_pairs;
    Alcotest.test_case "interval labels" `Quick test_interval_labels;
    Alcotest.test_case "heavy paths on fixture" `Quick test_heavy_path_fixture;
    prop_interval_routing_optimal;
    prop_heavy_path_log_bound ]
