(* Tests for the Theorem 1.3 lower-bound construction and the congruent
   naming counting (Section 5). *)

open Helpers
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Doubling = Cr_metric.Doubling
module Construction = Cr_lowerbound.Construction
module Naming = Cr_lowerbound.Naming

let test_construction_size () =
  List.iter
    (fun (n, p, q) ->
      let c = Construction.build ~n ~p ~q in
      let g = Construction.graph c in
      check_int (Printf.sprintf "n=%d p=%d q=%d" n p q) n (Graph.n g);
      check_int "tree edge count" (n - 1) (Graph.num_edges g);
      check_bool "connected" true (Graph.is_connected g))
    [ (64, 3, 2); (128, 4, 3); (256, 4, 3); (100, 2, 2) ]

(* w_(i,j) = 2^i (q + j) is the weight of the one edge joining the root
   to the middle node of T_(i,j). *)
let root_edge c ~i ~j =
  match Construction.path_nodes c ~i ~j with
  | [] -> None
  | ids ->
    let middle = List.nth ids (List.length ids / 2) in
    Graph.edge_weight (Construction.graph c) 0 middle

let test_branch_weights () =
  let c = Construction.build ~n:128 ~p:4 ~q:3 in
  let p = Construction.p c and q = Construction.q c in
  let branches = ref 0 in
  for i = 0 to p - 1 do
    for j = 0 to q - 1 do
      match root_edge c ~i ~j with
      | None ->
        check_bool "only an empty path has no root edge" true
          (Construction.path_nodes c ~i ~j = [])
      | Some w ->
        incr branches;
        check_float
          (Printf.sprintf "w_%d%d = 2^i (q + j)" i j)
          (Float.pow 2.0 (float_of_int i) *. float_of_int (q + j))
          w
    done
  done;
  check_int "one root edge per non-empty path" !branches
    (Graph.degree (Construction.graph c) 0);
  check_float "w_01 = q+1" 4.0 (Option.get (root_edge c ~i:0 ~j:1));
  check_float "w_20 = 4q" 12.0 (Option.get (root_edge c ~i:2 ~j:0));
  check_float "w_32 = 8(q+2)" 40.0 (Option.get (root_edge c ~i:3 ~j:2))

let test_paths_partition () =
  let c = Construction.build ~n:256 ~p:4 ~q:3 in
  let seen = Array.make 256 false in
  seen.(0) <- true;
  for i = 0 to Construction.p c - 1 do
    for j = 0 to Construction.q c - 1 do
      List.iter
        (fun v ->
          check_bool "node in exactly one path" false seen.(v);
          seen.(v) <- true)
        (Construction.path_nodes c ~i ~j)
    done
  done;
  Array.iteri
    (fun v covered ->
      check_bool (Printf.sprintf "node %d covered" v) true covered)
    seen

(* The adversary hides the target on the last non-empty path: branch
   weights grow with k = iq + j by at least 1 while a path spans less than
   1, so the node farthest from the root lies on that path. *)
let test_deepest_path () =
  let c = Construction.build ~n:256 ~p:4 ~q:3 in
  let deepest = ref [] in
  for i = 0 to Construction.p c - 1 do
    for j = 0 to Construction.q c - 1 do
      let ids = Construction.path_nodes c ~i ~j in
      if ids <> [] then deepest := ids
    done
  done;
  check_bool "deepest nonempty" true (!deepest <> []);
  let r = Cr_metric.Dijkstra.run (Construction.graph c) 0 in
  let far = ref 0 in
  Array.iteri (fun v d -> if d > r.dist.(!far) then far := v) r.dist;
  check_bool "farthest node on the deepest path" true (List.mem !far !deepest)

let test_doubling_dimension_bound () =
  (* Lemma 5.8: alpha <= 6 - log2 eps. The greedy estimate is an upper
     bound witness, so estimate <= bound confirms the lemma holds. *)
  List.iter
    (fun epsilon ->
      let c = Construction.of_epsilon ~epsilon ~n:256 in
      let m = Metric.of_graph (Construction.graph c) in
      let alpha = Doubling.estimate_sampled m ~samples:40 ~seed:3 in
      check_bool
        (Printf.sprintf "alpha %.2f <= %g-bound %.2f" alpha epsilon
           (Construction.expected_dimension_bound ~epsilon))
        true
        (alpha <= Construction.expected_dimension_bound ~epsilon))
    [ 1.0; 2.0; 4.0 ]

let test_diameter_bound () =
  (* Delta = O(2^(1/eps) n): check the concrete bound 2 w_max * n. *)
  let epsilon = 2.0 and n = 256 in
  let c = Construction.of_epsilon ~epsilon ~n in
  let m = Metric.of_graph (Construction.graph c) in
  let p = Construction.p c and q = Construction.q c in
  (* the heaviest branch, w_(p-1,q-1) = 2^(p-1) (2q - 1) *)
  let w_max = Float.pow 2.0 (float_of_int (p - 1)) *. float_of_int ((2 * q) - 1) in
  check_bool "Delta <= 2 (w_max + 1) n" true
    (Metric.normalized_diameter m
    <= 2.0 *. (w_max +. 1.0) *. float_of_int n)

let test_of_epsilon_validation () =
  Alcotest.check_raises "eps >= 8 rejected"
    (Invalid_argument "Construction.of_epsilon: epsilon must be in (0, 8)")
    (fun () -> ignore (Construction.of_epsilon ~epsilon:8.0 ~n:64))

let test_log2_factorial () =
  check_bool "log2 6! = log2 720" true
    (Float.abs (Naming.log2_factorial 6 -. Float.log2 720.0) < 1e-9);
  check_float "log2 1!" 0.0 (Naming.log2_factorial 1)

(* Section 5's partition: with c = pq and k = iq + j, |T_(i,j)| =
   round(n^((k+1)/c)) - round(n^(k/c)) (cumulative rounding), and the
   root's |V_0| = 1 completes a partition of all n nodes. *)
let test_partition_sizes () =
  List.iter
    (fun (n, p, q) ->
      let c = Construction.build ~n ~p ~q in
      let parts = p * q in
      let boundary k =
        int_of_float
          (Float.round
             (Float.pow (float_of_int n) (float_of_int k /. float_of_int parts)))
      in
      let total = ref 1 in
      for i = 0 to p - 1 do
        for j = 0 to q - 1 do
          let k = (i * q) + j in
          let size = List.length (Construction.path_nodes c ~i ~j) in
          check_int
            (Printf.sprintf "|T_(%d,%d)| at n=%d" i j n)
            (boundary (k + 1) - boundary k)
            size;
          total := !total + size
        done
      done;
      check_int "sizes sum to n" n !total)
    [ (64, 3, 2); (1024, 5, 2); (100, 2, 2) ]

let test_congruent_bound_positive () =
  (* At the Theorem 1.3 table size, congruent families survive every prefix *)
  let n = 1 lsl 16 in
  let beta = Naming.table_bits_bound ~n ~epsilon:1.0 in
  let c = 10 in
  for i = 0 to c - 2 do
    check_bool "lower bound positive" true
      (Naming.log2_congruent_bound ~n ~beta ~c ~i > 0.0)
  done

let test_pigeonhole_demo () =
  let config naming v =
    let h = ref 17 in
    Array.iteri
      (fun idx name -> h := (!h * 1_000_003) + ((idx + 3) * (name + 7)))
      naming;
    ((!h lxor (v * 131)) * 2654435761 lsr 13) land max_int
  in
  List.iter
    (fun (n, beta_bits, prefix) ->
      let largest = Naming.demonstrate_pigeonhole ~n ~beta_bits ~prefix ~config in
      let floor = Naming.lemma54_floor ~n ~beta_bits ~prefix in
      check_bool
        (Printf.sprintf "n=%d beta=%d prefix=%d: %d >= %d" n beta_bits prefix
           largest floor)
        true (largest >= floor))
    [ (5, 1, 2); (6, 1, 3); (6, 2, 2) ]

let test_pigeonhole_validation () =
  Alcotest.check_raises "n too large"
    (Invalid_argument "Naming.demonstrate_pigeonhole: n must be <= 8")
    (fun () ->
      ignore
        (Naming.demonstrate_pigeonhole ~n:9 ~beta_bits:1 ~prefix:1
           ~config:(fun _ _ -> 0)))

let suite =
  [ Alcotest.test_case "construction sizes" `Quick test_construction_size;
    Alcotest.test_case "branch weights" `Quick test_branch_weights;
    Alcotest.test_case "paths partition nodes" `Quick test_paths_partition;
    Alcotest.test_case "deepest path" `Quick test_deepest_path;
    Alcotest.test_case "doubling dimension bound (Lemma 5.8)" `Quick
      test_doubling_dimension_bound;
    Alcotest.test_case "diameter bound" `Quick test_diameter_bound;
    Alcotest.test_case "of_epsilon validation" `Quick
      test_of_epsilon_validation;
    Alcotest.test_case "log2 factorial" `Quick test_log2_factorial;
    Alcotest.test_case "partition sizes" `Quick test_partition_sizes;
    Alcotest.test_case "congruent bound positive" `Quick
      test_congruent_bound_positive;
    Alcotest.test_case "pigeonhole demo (Lemma 5.4)" `Quick
      test_pigeonhole_demo;
    Alcotest.test_case "pigeonhole validation" `Quick
      test_pigeonhole_validation ]

let test_adversary_hill_climb () =
  (* on a transparent measure the climber must find the optimum quickly:
     score = name assigned to node 0 (max n-1) *)
  let measure (naming : Cr_sim.Workload.naming) =
    float_of_int naming.Cr_sim.Workload.name_of.(0)
  in
  let r =
    Cr_lowerbound.Adversary.hill_climb ~measure ~n:6 ~seed:3 ~iterations:300
  in
  check_bool "optimum found" true (r.Cr_lowerbound.Adversary.score = 5.0);
  check_bool "evaluations counted" true
    (r.Cr_lowerbound.Adversary.evaluations > 1);
  (* the returned naming is a valid permutation achieving the score *)
  check_float "consistent" r.Cr_lowerbound.Adversary.score
    (measure r.Cr_lowerbound.Adversary.naming)

let test_adversary_validation () =
  Alcotest.check_raises "tiny n"
    (Invalid_argument "Adversary.hill_climb: n must be >= 2") (fun () ->
      ignore
        (Cr_lowerbound.Adversary.hill_climb
           ~measure:(fun _ -> 0.0)
           ~n:1 ~seed:0 ~iterations:1))

let suite =
  suite
  @ [ Alcotest.test_case "adversary hill climb" `Quick
        test_adversary_hill_climb;
      Alcotest.test_case "adversary validation" `Quick
        test_adversary_validation ]
