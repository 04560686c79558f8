(* Tests for the Cr_par domain pool and the PR's headline guarantee:
   metric construction, scheme tables, and workload stretch summaries are
   bit-identical whatever the pool size (1, 2, and 4 domains). *)

open Helpers
module Pool = Cr_par.Pool
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Workload = Cr_sim.Workload
module Stats = Cr_sim.Stats
module Rng = Cr_graphgen.Rng

let pool_sizes = [ 1; 2; 4 ]
let pools () = List.map (fun d -> Pool.create ~domains:d ()) pool_sizes

(* Pool unit behavior *)

let test_pool_sizes () =
  check_int "explicit" 3 (Pool.domains (Pool.create ~domains:3 ()));
  check_int "clamped" 64 (Pool.domains (Pool.create ~domains:1000 ()));
  check_int "sequential" 1 (Pool.domains Pool.sequential);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

let test_parallel_init_edges () =
  List.iter
    (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.parallel_init p 0 Fun.id);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Pool.parallel_init p 1 (fun _ -> 7));
      Alcotest.check_raises "negative"
        (Invalid_argument "Pool.parallel_init: negative length") (fun () ->
          ignore (Pool.parallel_init p (-1) Fun.id)))
    (pools ())

let test_exception_propagates () =
  let p = Pool.create ~domains:4 () in
  Alcotest.check_raises "worker exception reaches caller"
    (Invalid_argument "boom") (fun () ->
      ignore
        (Pool.parallel_init p 100 (fun i ->
             if i = 57 then invalid_arg "boom" else i)))

let prop_parallel_init_matches_array_init =
  qcheck_case "pool: parallel_init = Array.init for sizes 1/2/4"
    QCheck2.Gen.(
      let* n = int_range 0 300 in
      let* salt = int_range 0 10_000 in
      return (n, salt))
    (fun (n, salt) ->
      let f i = ((i * 2654435761) + salt) land 0xffff in
      let expected = Array.init n f in
      List.for_all
        (fun p -> Pool.parallel_init p n f = expected)
        (pools ()))

let prop_parallel_map_list_order =
  qcheck_case "pool: parallel_map_list preserves order"
    QCheck2.Gen.(list_size (int_range 0 120) (int_range 0 1000))
    (fun l ->
      let f x = (x * 3) + 1 in
      let expected = List.map f l in
      List.for_all
        (fun p -> Pool.parallel_map_list p f l = expected)
        (pools ()))

(* Random-graph generator shared by the determinism properties: geometric,
   holey-grid, and tree-plus-chords shapes. *)

let graph_gen =
  QCheck2.Gen.(
    let* kind = int_range 0 2 in
    let* seed = int_range 0 10_000 in
    return (kind, seed))

let graph_of (kind, seed) =
  match kind with
  | 0 -> Cr_graphgen.Geometric.knn ~n:(12 + (seed mod 12)) ~k:3 ~seed
  | 1 -> Cr_graphgen.Grid.with_holes ~side:4 ~hole_fraction:0.2 ~seed
  | _ ->
    let n = 8 + (seed mod 12) in
    let rng = Rng.create seed in
    let g = Graph.create n in
    for v = 1 to n - 1 do
      let p = Rng.int rng v in
      Graph.add_edge g p v (1.0 +. Rng.float rng 4.0)
    done;
    for _ = 1 to n / 3 do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v && Graph.edge_weight g u v = None then
        Graph.add_edge g u v (1.0 +. Rng.float rng 4.0)
    done;
    g

let prop_metric_determinism =
  qcheck_case ~count:30 "parallel: metric identical for pools 1/2/4"
    graph_gen (fun params ->
      let g = graph_of params in
      match List.map (fun p -> Metric.of_graph ~pool:p g) (pools ()) with
      | [] | [ _ ] -> false
      | reference :: others ->
        let n = Metric.n reference in
        let same m =
          let ok = ref (Metric.n m = n) in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              (* bit-identical, not approximately equal *)
              if Metric.dist m u v <> Metric.dist reference u v then
                ok := false
            done;
            if Metric.first_hops m ~src:u <> Metric.first_hops reference ~src:u
            then ok := false;
            let rec sizes s = if s <= n then s :: sizes (2 * s) else [] in
            List.iter
              (fun s ->
                if
                  Metric.radius_of_size m u s
                  <> Metric.radius_of_size reference u s
                then ok := false)
              (sizes 1)
          done;
          !ok
          && Metric.diameter m = Metric.diameter reference
          && Metric.min_distance m = Metric.min_distance reference
        in
        List.for_all same others)

let prop_labeled_determinism =
  qcheck_case ~count:10
    "parallel: labeled tables + stats identical for pools 1/2/4" graph_gen
    (fun params ->
      let g = graph_of params in
      let built =
        List.map
          (fun p ->
            let m = Metric.of_graph ~pool:p g in
            let nt = Netting_tree.build (Hierarchy.build m) in
            let hier =
              Cr_core.Hier_labeled.to_underlying
                (Cr_core.Hier_labeled.build ~pool:p nt ~epsilon:0.5)
            in
            let sfl =
              Cr_core.Scale_free_labeled.build ~pool:p nt ~epsilon:0.5
            in
            let n = Metric.n m in
            let pairs = Workload.pairs_for ~n ~seed:17 ~budget:150 in
            let summary = Stats.measure_labeled ~pool:p m hier pairs in
            let tables =
              List.init n (fun v ->
                  ( hier.Cr_sim.Scheme.label v,
                    hier.Cr_sim.Scheme.l_table_bits v,
                    Cr_core.Scale_free_labeled.table_bits sfl v ))
            in
            (tables, summary))
          (pools ())
      in
      match built with
      | [] | [ _ ] -> false
      | reference :: others -> List.for_all (( = ) reference) others)

let prop_ni_determinism =
  qcheck_case ~count:5
    "parallel: name-independent tables + stats identical for pools 1/2/4"
    graph_gen (fun params ->
      let g = graph_of params in
      let built =
        List.map
          (fun p ->
            let m = Metric.of_graph ~pool:p g in
            let n = Metric.n m in
            let nt = Netting_tree.build (Hierarchy.build m) in
            let naming = Workload.random_naming ~n ~seed:42 in
            let hier = Cr_core.Hier_labeled.build ~pool:p nt ~epsilon:0.5 in
            let sni =
              Cr_core.Simple_ni.build ~pool:p nt ~epsilon:0.5 ~naming
                ~underlying:(Cr_core.Hier_labeled.to_underlying hier)
            in
            let scheme = Cr_core.Simple_ni.to_scheme sni in
            let pairs = Workload.pairs_for ~n ~seed:17 ~budget:80 in
            let summary =
              Stats.measure_name_independent ~pool:p m scheme naming pairs
            in
            (List.init n scheme.Cr_sim.Scheme.ni_table_bits, summary))
          (pools ())
      in
      match built with
      | [] | [ _ ] -> false
      | reference :: others -> List.for_all (( = ) reference) others)

let test_parallel_eval_matches_sequential () =
  let m = grid6 () in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let s =
    Cr_core.Hier_labeled.to_underlying (Cr_core.Hier_labeled.build nt ~epsilon:0.5)
  in
  let pairs = all_pairs (Metric.n m) in
  let sequential = Stats.measure_labeled m s pairs in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "pool of %d matches sequential" (Pool.domains p))
        true
        (Stats.measure_labeled ~pool:p m s pairs = sequential))
    (pools ())

let suite =
  [ Alcotest.test_case "pool sizes" `Quick test_pool_sizes;
    Alcotest.test_case "parallel_init edge cases" `Quick
      test_parallel_init_edges;
    Alcotest.test_case "worker exceptions propagate" `Quick
      test_exception_propagates;
    prop_parallel_init_matches_array_init;
    prop_parallel_map_list_order;
    prop_metric_determinism;
    prop_labeled_determinism;
    prop_ni_determinism;
    Alcotest.test_case "parallel eval = sequential eval" `Quick
      test_parallel_eval_matches_sequential ]
