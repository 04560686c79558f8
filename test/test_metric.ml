(* Unit and property tests for the metric substrate: graphs, Dijkstra, the
   distance matrix, ball radii, and bit accounting. *)

open Helpers
module Graph = Cr_metric.Graph
module Dijkstra = Cr_metric.Dijkstra
module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Doubling = Cr_metric.Doubling
module Pq = Cr_metric.Priority_queue

(* [g] as the edge-list text Graph_io reads: the node count, then one
   "u v w" line per edge, weights printed exactly. *)
let edge_list_text g =
  String.concat ""
    (Printf.sprintf "# n, then u v w\n%d\n" (Graph.n g)
    :: List.map
         (fun (e : Graph.edge) -> Printf.sprintf "%d %d %.17g\n" e.u e.v e.w)
         (Graph.edges g))

(* The source-to-[v] node sequence read off a Dijkstra forest: the oracle
   the metric's predecessor rows are checked against. *)
let forest_path (r : Dijkstra.result) v =
  if not (Float.is_finite r.dist.(v)) then invalid_arg "unreachable node";
  let rec build v acc =
    if r.pred.(v) = -1 then v :: acc else build r.pred.(v) (v :: acc)
  in
  build v []

let test_graph_basics () =
  let g = graph_of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0) ] in
  check_int "n" 4 (Graph.n g);
  check_int "m" 3 (Graph.num_edges g);
  check_int "deg 1" 2 (Graph.degree g 1);
  check_int "max deg" 2 (Graph.max_degree g);
  check_bool "connected" true (Graph.is_connected g);
  check_float "weight" 2.0 (Option.get (Graph.edge_weight g 1 2));
  check_bool "missing edge" true (Graph.edge_weight g 0 3 = None)

let test_graph_rejects () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1 1.0);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      Graph.add_edge g 0 1 2.0);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Graph.add_edge: weight must be positive and finite")
    (fun () -> Graph.add_edge g 1 2 0.0)

let test_graph_disconnected () =
  let g = graph_of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  check_bool "disconnected" false (Graph.is_connected g)

let test_dijkstra_line () =
  let g = graph_of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0) ] in
  let r = Dijkstra.run g 0 in
  check_float "d(0,3)" 4.0 r.dist.(3);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (forest_path r 3)

let test_dijkstra_shortcut () =
  (* Triangle where the direct edge 0-2 is longer than the two-hop path. *)
  let g = graph_of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 3.0) ] in
  let r = Dijkstra.run g 0 in
  check_float "d(0,2)" 2.0 r.dist.(2);
  Alcotest.(check (list int)) "path avoids heavy edge" [ 0; 1; 2 ]
    (forest_path r 2)

let test_multi_source_prefix_closed () =
  let m = grid8 () in
  let g = Metric.graph m in
  let centers = [ 0; 63; 28 ] in
  let dist, owner, pred = Dijkstra.multi_source g centers in
  (* every node's predecessor shares its owner: prefix-closure *)
  for v = 0 to Graph.n g - 1 do
    check_bool "owner is a center" true (List.mem owner.(v) centers);
    if pred.(v) >= 0 then
      check_int (Printf.sprintf "prefix closure at %d" v) owner.(pred.(v))
        owner.(v);
    check_bool "distance correct" true
      (dist.(v)
      = List.fold_left (fun acc c -> Float.min acc (Metric.dist m v c))
          infinity centers)
  done

(* The cases the connected, deduplicated qcheck draws never reach: nodes
   no source reaches, a repeated source, and the two rejections. *)
let test_multi_source_edge_cases () =
  (* components {0, 1, 2} and {3, 4}, and node 5 on its own *)
  let g = graph_of_edges 6 [ (0, 1, 1.0); (1, 2, 2.0); (3, 4, 1.0) ] in
  let dist, owner, pred = Dijkstra.multi_source g [ 0 ] in
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "node %d unreached" v) true
        (dist.(v) = infinity && owner.(v) = -1 && pred.(v) = -1))
    [ 3; 4; 5 ];
  check_float "d(0, 2)" 3.0 dist.(2);
  let dist, owner, pred = Dijkstra.multi_source g [ 3; 0 ] in
  List.iter
    (fun s ->
      check_float (Printf.sprintf "source %d dist" s) 0.0 dist.(s);
      check_int (Printf.sprintf "source %d owner" s) s owner.(s);
      check_int (Printf.sprintf "source %d pred" s) (-1) pred.(s))
    [ 0; 3 ];
  check_int "4 owned by 3" 3 owner.(4);
  check_bool "5 unreached" true (owner.(5) = -1 && pred.(5) = -1);
  let same sources =
    Dijkstra.multi_source g sources = (dist, owner, pred)
  in
  check_bool "duplicated source changes nothing" true
    (same [ 0; 3; 0 ] && same [ 3; 3; 0; 0 ]);
  Alcotest.check_raises "no sources"
    (Invalid_argument "Dijkstra.multi_source: no sources") (fun () ->
      ignore (Dijkstra.multi_source g []));
  Alcotest.check_raises "source past the last node"
    (Invalid_argument "Dijkstra.multi_source: source out of range")
    (fun () -> ignore (Dijkstra.multi_source g [ 0; 6 ]));
  Alcotest.check_raises "negative source"
    (Invalid_argument "Dijkstra.multi_source: source out of range")
    (fun () -> ignore (Dijkstra.multi_source g [ -1 ]))

let test_metric_normalization () =
  let g = graph_of_edges 3 [ (0, 1, 5.0); (1, 2, 10.0) ] in
  let m = Metric.of_graph g in
  check_float "min distance" 1.0 (Metric.min_distance m);
  check_float "diameter" 3.0 (Metric.diameter m);
  check_float "Delta" 3.0 (Metric.normalized_diameter m)

let test_metric_levels () =
  let m = ring16 () in
  (* ring of 16 unit edges: diameter 8, so levels = 3 *)
  check_int "levels" 3 (Metric.levels m)

let test_metric_ball () =
  let m = grid6 () in
  let b = Metric.ball m ~center:0 ~radius:1.0 in
  Alcotest.(check (list int)) "ball r=1 at corner" [ 0; 1; 6 ] b

let test_radius_of_size () =
  let m = grid6 () in
  check_float "r_u(1)=0" 0.0 (Metric.radius_of_size m 0 1);
  check_float "r_0(3)" 1.0 (Metric.radius_of_size m 0 3);
  check_bool "monotone" true
    (Metric.radius_of_size m 0 8 <= Metric.radius_of_size m 0 16)

let test_nearest_k () =
  let m = grid6 () in
  let near = Metric.nearest_k m 0 3 in
  Alcotest.(check (list int)) "3 nearest to corner" [ 0; 1; 6 ] near;
  check_int "size" 6 (List.length (Metric.nearest_k m 0 6))

let test_of_graph_rejects () =
  let one = Graph.create 1 in
  (* non-unit weights: the checks must come before any rescaling *)
  let split = graph_of_edges 4 [ (0, 1, 0.5); (2, 3, 2.0) ] in
  List.iter
    (fun (name, build) ->
      Alcotest.check_raises (name ^ ": one node")
        (Invalid_argument "Metric.of_graph: need at least 2 nodes") (fun () ->
          ignore (build one));
      Alcotest.check_raises (name ^ ": disconnected")
        (Invalid_argument "Metric.of_graph: graph must be connected")
        (fun () -> ignore (build split)))
    [ ("of_graph", fun g -> Metric.of_graph g);
      ("of_graph_unnormalized", fun g -> Metric.of_graph_unnormalized g) ]

let test_nearest_in_tie_break () =
  let m = grid6 () in
  (* nodes 1 and 6 are both at distance 1 from 0: least id wins *)
  check_int "tie break" 1 (Metric.nearest_in m 0 [ 6; 1 ])

let test_next_hop () =
  let m = grid6 () in
  let hop = (Metric.first_hops m ~src:0).(35) in
  check_bool "hop adjacent" true
    (Graph.edge_weight (Metric.graph m) 0 hop <> None)

(* On the 48-node chain of base 3.0, distances pass 2^53, where adding a
   unit edge rounds back to the same float: a tie-break that re-parents a
   node onto a neighbour at its own distance makes the two each other's
   predecessors. Every predecessor chain must reach its root; chains are
   chased at most n steps, so a cycle fails here as an assertion, before
   [Metric.first_hops] (which recurses along them) is called. *)
let test_absorbed_weight_forests () =
  let m =
    Metric.of_graph (Cr_graphgen.Path_like.exponential_chain ~n:48 ~base:3.0)
  in
  let g = Metric.graph m in
  let n = Metric.n m in
  let reaches pred v root =
    let rec chase v steps =
      v = root || (steps < n && v >= 0 && chase pred.(v) (steps + 1))
    in
    chase v 0
  in
  for src = 0 to n - 1 do
    let r = Dijkstra.run g src in
    for v = 0 to n - 1 do
      check_bool
        (Printf.sprintf "run from %d: %d's chain reaches the source" src v)
        true (reaches r.pred v src)
    done
  done;
  List.iter
    (fun sources ->
      let _, owner, pred = Dijkstra.multi_source g sources in
      for v = 0 to n - 1 do
        check_bool
          (Printf.sprintf "multi_source from %d sources: %d's chain reaches its owner"
             (List.length sources) v)
          true
          (reaches pred v owner.(v))
      done)
    [ [ 0 ]; [ 47 ]; [ 0; 47 ]; [ 0; 16; 32; 47 ]; List.init 24 (fun i -> 2 * i) ];
  for src = 0 to n - 1 do
    let hops = Metric.first_hops m ~src in
    check_int (Printf.sprintf "first_hops from %d: diagonal" src) (-1) hops.(src);
    for v = 0 to n - 1 do
      if v <> src then
        check_bool
          (Printf.sprintf "first_hops from %d to %d: a neighbour" src v)
          true
          (Graph.edge_weight g src hops.(v) <> None)
    done
  done

let test_bits () =
  check_int "ceil_log2 1" 0 (Bits.ceil_log2 1);
  check_int "ceil_log2 2" 1 (Bits.ceil_log2 2);
  check_int "ceil_log2 3" 2 (Bits.ceil_log2 3);
  check_int "ceil_log2 1024" 10 (Bits.ceil_log2 1024);
  check_int "range" 12 (Bits.range_bits 64)

let test_doubling_grid () =
  let m = grid6 () in
  let alpha = Doubling.estimate m in
  check_bool "grid doubling dimension is small" true (alpha <= 4.0);
  let sampled = Doubling.estimate_sampled m ~samples:20 ~seed:3 in
  check_bool "sampled <= full" true (sampled <= alpha)

let test_doubling_hypercube_grows () =
  let small = Metric.of_graph (Cr_graphgen.Hypercube.cube ~dim:3) in
  let large = Metric.of_graph (Cr_graphgen.Hypercube.cube ~dim:6) in
  check_bool "hypercube dimension grows" true
    (Doubling.estimate large > Doubling.estimate small)

(* Property tests *)

let metric_gen =
  (* random connected graph: a random tree plus a few extra edges *)
  QCheck2.Gen.(
    let* n = int_range 2 24 in
    let* seed = int_range 0 10_000 in
    return (n, seed))

let metric_of (n, seed) =
  let rng = Cr_graphgen.Rng.create seed in
  let g = Graph.create n in
  for v = 1 to n - 1 do
    let p = Cr_graphgen.Rng.int rng v in
    Graph.add_edge g p v (1.0 +. Cr_graphgen.Rng.float rng 4.0)
  done;
  (* a few chords *)
  let extra = n / 3 in
  for _ = 1 to extra do
    let u = Cr_graphgen.Rng.int rng n and v = Cr_graphgen.Rng.int rng n in
    if u <> v && Graph.edge_weight g u v = None then
      Graph.add_edge g u v (1.0 +. Cr_graphgen.Rng.float rng 4.0)
  done;
  Metric.of_graph g

let prop_triangle_inequality =
  qcheck_case "metric: triangle inequality + symmetry" metric_gen
    (fun params ->
      let m = metric_of params in
      let n = Metric.n m in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Metric.dist m u v <> Metric.dist m v u then ok := false;
          for w = 0 to n - 1 do
            if Metric.dist m u w > Metric.dist m u v +. Metric.dist m v w +. 1e-9
            then ok := false
          done
        done
      done;
      !ok)

let prop_shortest_path_cost =
  qcheck_case "metric: canonical path cost matches distance" metric_gen
    (fun params ->
      let m = metric_of params in
      let g = Metric.graph m in
      let n = Metric.n m in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let path = Metric.shortest_path m ~src:u ~dst:v in
            let rec cost = function
              | a :: (b :: _ as rest) ->
                Option.get (Graph.edge_weight g a b) +. cost rest
              | _ -> 0.0
            in
            if Float.abs (cost path -. Metric.dist m u v) > 1e-9 then
              ok := false
          end
        done
      done;
      !ok)

let prop_radius_of_size_minimal =
  qcheck_case "metric: radius_of_size is tight" metric_gen (fun params ->
      let m = metric_of params in
      let n = Metric.n m in
      let ok = ref true in
      for u = 0 to n - 1 do
        let rec sizes s = if s <= n then s :: sizes (2 * s) else [] in
        List.iter
          (fun s ->
            let r = Metric.radius_of_size m u s in
            if List.length (Metric.ball m ~center:u ~radius:r) < s then ok := false;
            if r > 0.0 && List.length (Metric.ball m ~center:u ~radius:(r *. 0.999)) >= s
            then ok := false)
          (sizes 1)
      done;
      !ok)

(* Properties on random geometric / grid graphs — the shapes the evaluation
   families (geo, grid, holey) are built from, with non-unit weights
   exercising the normalization path. *)

let prop_geo_grid_triangle =
  qcheck_case ~count:40 "metric: triangle inequality + symmetry (geo/grid)"
    family_gen (fun params ->
      let m = Metric.of_graph (family_graph params) in
      let n = Metric.n m in
      let ok = ref true in
      for u = 0 to n - 1 do
        if Metric.dist m u u <> 0.0 then ok := false;
        for v = 0 to n - 1 do
          if Metric.dist m u v <> Metric.dist m v u then ok := false;
          if u <> v && Metric.dist m u v <= 0.0 then ok := false;
          for w = 0 to n - 1 do
            if
              Metric.dist m u w
              > Metric.dist m u v +. Metric.dist m v w +. 1e-9
            then ok := false
          done
        done
      done;
      !ok)

let prop_normalized_min_distance =
  qcheck_case ~count:40 "metric: min_distance ~ 1 after normalization"
    family_gen (fun params ->
      let m = Metric.of_graph (family_graph params) in
      (* of_graph rescales so the least positive distance is 1; rebuilding
         on the scaled graph can move it by float rounding only *)
      Float.abs (Metric.min_distance m -. 1.0) <= 1e-9
      && Float.abs
           (Metric.normalized_diameter m -. Metric.diameter m)
         <= 1e-9 *. Metric.diameter m)

let prop_ball_monotone =
  qcheck_case ~count:40 "metric: ball monotone in radius (geo/grid)"
    QCheck2.Gen.(
      let* params = family_gen in
      let* r1 = float_bound_inclusive 1.0 in
      let* r2 = float_bound_inclusive 1.0 in
      return (params, Float.min r1 r2, Float.max r1 r2))
    (fun (params, f1, f2) ->
      let m = Metric.of_graph (family_graph params) in
      let n = Metric.n m in
      let r1 = f1 *. Metric.diameter m and r2 = f2 *. Metric.diameter m in
      let ok = ref true in
      for u = 0 to n - 1 do
        let b1 = Metric.ball m ~center:u ~radius:r1 in
        let b2 = Metric.ball m ~center:u ~radius:r2 in
        (* smaller-radius ball is contained in the larger *)
        if not (List.for_all (fun v -> List.mem v b2) b1) then ok := false;
        (* every ball contains its center, and the diameter ball is V *)
        if not (List.mem u (Metric.ball m ~center:u ~radius:0.0)) then
          ok := false
      done;
      !ok
      && List.length (Metric.ball m ~center:0 ~radius:(Metric.diameter m)) = n)

let prop_geo_grid_radius_tight =
  qcheck_case ~count:40 "metric: radius_of_size least radius (geo/grid)"
    family_gen (fun params ->
      let m = Metric.of_graph (family_graph params) in
      let n = Metric.n m in
      let ok = ref true in
      for u = 0 to n - 1 do
        for size = 1 to n do
          let r = Metric.radius_of_size m u size in
          if List.length (Metric.ball m ~center:u ~radius:r) < size then ok := false;
          (* any strictly smaller radius misses the size target *)
          if
            r > 0.0
            && List.length (Metric.ball m ~center:u ~radius:(r *. (1.0 -. 1e-12)))
               >= size
          then ok := false
        done
      done;
      !ok)

(* The stored neighbour order against brute-force sorts, and the single
   normalized build against the old build-measure-rebuild sequence. *)

let prop_nearest_k_brute_force =
  qcheck_case ~count:40 "metric: nearest_k = brute (distance, id) sort"
    family_gen (fun fam ->
      let m = Metric.of_graph (family_graph fam) in
      let n = Metric.n m in
      List.for_all
        (fun u ->
          let expected = brute_order m u in
          List.for_all
            (fun k -> Metric.nearest_k m u k = take k expected)
            (List.init n (fun i -> i + 1)))
        (List.init n Fun.id))

let prop_radius_of_size_row =
  qcheck_case ~count:40 "metric: radius_of_size = k-th smallest row entry"
    family_gen (fun fam ->
      let m = Metric.of_graph (family_graph fam) in
      let n = Metric.n m in
      List.for_all
        (fun u ->
          let row =
            Array.of_list
              (List.sort Float.compare (List.init n (Metric.dist m u)))
          in
          List.for_all
            (fun k -> Float.equal (Metric.radius_of_size m u k) row.(k - 1))
            (List.init n (fun i -> i + 1)))
        (List.init n Fun.id))

let prop_of_graph_single_build =
  qcheck_case ~count:40 "metric: of_graph = two-build reference"
    QCheck2.Gen.(pair family_gen (float_range 0.05 20.0))
    (fun (fam, factor) ->
      let g = Graph.scale (family_graph fam) factor in
      let raw = Metric.of_graph_unnormalized g in
      let reference =
        Metric.of_graph_unnormalized
          (Graph.scale g (1. /. Metric.min_distance raw))
      in
      let m = Metric.of_graph g in
      let n = Metric.n m in
      let pairs =
        List.concat_map
          (fun u -> List.map (fun v -> (u, v)) (List.init n Fun.id))
          (List.init n Fun.id)
      in
      Float.equal (Graph.min_edge_weight g) (Metric.min_distance raw)
      && Float.equal (Metric.diameter m) (Metric.diameter reference)
      && Float.equal (Metric.min_distance m) (Metric.min_distance reference)
      && List.for_all
           (fun (u, v) ->
             Float.equal (Metric.dist m u v) (Metric.dist reference u v))
           pairs
      && List.for_all
           (fun u ->
             Metric.first_hops m ~src:u = Metric.first_hops reference ~src:u)
           (List.init n Fun.id))

(* The metric's flat predecessor rows against each source's own Dijkstra
   forest: next hops, paths and whole first-hop rows. *)
let prop_forest_rows =
  qcheck_case ~count:40 "metric: first_hops, shortest_path = forest"
    family_gen (fun params ->
      let m = Metric.of_graph (family_graph params) in
      let n = Metric.n m in
      List.for_all
        (fun src ->
          let r = Dijkstra.run (Metric.graph m) src in
          let hops = Metric.first_hops m ~src in
          hops.(src) = -1
          && List.for_all
               (fun dst ->
                 dst = src
                 || (let path = forest_path r dst in
                     hops.(dst) = List.nth path 1
                     && Metric.shortest_path m ~src ~dst = path))
               (List.init n Fun.id))
        (List.init n Fun.id))

(* Small integer weights keep every path sum exact in floating point, so
   distance ties between different sources are common and the least-id
   owner tie-break is actually exercised (continuous random weights almost
   never collide). *)
let multi_source_gen =
  QCheck2.Gen.(
    let* n = int_range 2 24 in
    let* seed = int_range 0 10_000 in
    let* nsources = int_range 1 5 in
    return (n, seed, nsources))

let prop_multi_source_brute_force =
  qcheck_case ~count:80
    "dijkstra: multi_source = brute-force min over single sources"
    multi_source_gen
    (fun (n, seed, nsources) ->
      let rng = Cr_graphgen.Rng.create seed in
      let g = Graph.create n in
      let weight () = float_of_int (1 + Cr_graphgen.Rng.int rng 3) in
      for v = 1 to n - 1 do
        Graph.add_edge g (Cr_graphgen.Rng.int rng v) v (weight ())
      done;
      for _ = 1 to n / 3 do
        let u = Cr_graphgen.Rng.int rng n
        and v = Cr_graphgen.Rng.int rng n in
        if u <> v && Graph.edge_weight g u v = None then
          Graph.add_edge g u v (weight ())
      done;
      let sources =
        List.sort_uniq compare
          (List.init (min nsources n) (fun _ -> Cr_graphgen.Rng.int rng n))
      in
      let dist, owner, pred = Dijkstra.multi_source g sources in
      let singles = List.map (fun s -> (s, Dijkstra.run g s)) sources in
      let ok = ref true in
      for v = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc (_, (r : Dijkstra.result)) -> Float.min acc r.dist.(v))
            infinity singles
        in
        (* distance: exact min over single-source runs *)
        if dist.(v) <> best then ok := false;
        (* owner: least source id among those attaining the min distance *)
        let argmin =
          List.fold_left
            (fun acc (s, (r : Dijkstra.result)) ->
              if r.dist.(v) = best then min acc s else acc)
            max_int singles
        in
        if owner.(v) <> argmin then ok := false;
        (* predecessors: graph edges, consistent distances, same owner *)
        if List.mem v sources then begin
          if pred.(v) <> -1 || dist.(v) <> 0.0 then ok := false
        end
        else begin
          match Graph.edge_weight g pred.(v) v with
          | None -> ok := false
          | Some w ->
            if dist.(pred.(v)) +. w <> dist.(v) then ok := false;
            if owner.(pred.(v)) <> owner.(v) then ok := false
        end
      done;
      !ok)

(* ---- the keyed heap against a sorted-list model ---- *)

(* Keys are small integers, so equal priorities are common; [`Lower]
   lowers a key and pushes again, which leaves the older entry stale
   (a lowering by 0 pushes an equal-priority duplicate instead). The
   model keeps every entry sorted by (priority, element); a pop drops
   the stale entries ahead of the least live one and takes that one. *)
let heap_ops_gen =
  QCheck2.Gen.(
    let* keys = list_repeat 8 (int_range 0 6) in
    let* ops =
      list_size (int_range 0 80)
        (frequency
           [ (4, map (fun x -> `Push x) (int_range 0 7));
             (3, map2 (fun x by -> `Lower (x, by)) (int_range 0 7)
                   (int_range 0 3));
             (4, return `Pop);
             (1, return `Clear) ])
    in
    return (keys, ops))

let prop_keyed_heap_model =
  qcheck_case ~count:300 "priority queue: keyed heap = sorted-list model"
    heap_ops_gen (fun (keys, ops) ->
      let key = Array.of_list (List.map float_of_int keys) in
      let h = Pq.create () in
      let model = ref [] in
      let entry_le (p, x) (q, y) = p < q || (Float.equal p q && x <= y) in
      let insert e =
        let rec go = function
          | [] -> [ e ]
          | f :: rest as l -> if entry_le e f then e :: l else f :: go rest
        in
        model := go !model
      in
      let rec model_pop = function
        | [] -> (-1, [])
        | (p, x) :: rest -> if p > key.(x) then model_pop rest else (x, rest)
      in
      let push x =
        Pq.push h key x;
        insert (key.(x), x)
      in
      let pop () =
        let got = Pq.pop h key in
        let want, rest = model_pop !model in
        model := rest;
        got = want
      in
      let step ok op =
        ok
        && (match op with
           | `Push x ->
             push x;
             true
           | `Lower (x, by) ->
             key.(x) <- key.(x) -. float_of_int by;
             push x;
             true
           | `Pop -> pop ()
           | `Clear ->
             Pq.clear h;
             model := [];
             true)
      in
      let rec drain () = !model = [] || (pop () && drain ()) in
      List.fold_left step true ops && drain () && Pq.pop h key = -1)

(* ---- Dijkstra against a Bellman-Ford reference ---- *)

(* Relaxes every edge in both directions until nothing changes, by the
   (distance, owner) order; then reads each predecessor off the fixpoint.
   Single-source: the least-id tight neighbour. Multi-source: the first
   tight neighbour of the same owner in (distance, id) order, which is
   the pop order that first reaches the final pair. *)
let bellman_ford ~multi g sources =
  let n = Graph.n g in
  let dist = Array.make n infinity and owner = Array.make n (-1) in
  List.iter
    (fun s ->
      dist.(s) <- 0.0;
      if owner.(s) = -1 || s < owner.(s) then owner.(s) <- s)
    sources;
  let arcs =
    List.concat_map
      (fun (e : Graph.edge) -> [ (e.u, e.v, e.w); (e.v, e.u, e.w) ])
      (Graph.edges g)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (u, v, w) ->
        let cand = dist.(u) +. w in
        if
          cand < dist.(v)
          || (Float.equal cand dist.(v) && owner.(u) < owner.(v))
        then begin
          dist.(v) <- cand;
          owner.(v) <- owner.(u);
          changed := true
        end)
      arcs
  done;
  let tight v =
    List.filter_map
      (fun (u, v', w) ->
        if v' = v && Float.equal (dist.(u) +. w) dist.(v) then Some u
        else None)
      arcs
  in
  let pred =
    Array.init n (fun v ->
        if List.mem v sources || not (Float.is_finite dist.(v)) then -1
        else if not multi then List.fold_left Int.min max_int (tight v)
        else
          let same = List.filter (fun u -> owner.(u) = owner.(v)) (tight v) in
          let first a b =
            let c = Float.compare dist.(a) dist.(b) in
            if c < 0 || (c = 0 && a < b) then a else b
          in
          List.fold_left first (List.hd same) same)
  in
  (dist, owner, pred)

(* The dense families plus power-law graphs, whose hubs give long rows;
   unit-weight grids force distance ties. *)
let sssp_gen =
  QCheck2.Gen.(
    let* g =
      oneof
        [ map family_graph family_gen;
          map2
            (fun n seed -> Cr_graphgen.Power_law.preferential ~n ~m:2 ~seed)
            (int_range 10 60) (int_range 1 1000) ]
    in
    let* salt = int_range 0 1_000_000 in
    return (g, salt))

let prop_dijkstra_bellman_ford =
  qcheck_case ~count:150
    "dijkstra: run and multi_source = Bellman-Ford reference" sssp_gen
    (fun (g, salt) ->
      let n = Graph.n g in
      let src = salt mod n in
      let r = Dijkstra.run g src in
      let bdist, _, bpred = bellman_ford ~multi:false g [ src ] in
      let sources =
        List.sort_uniq Int.compare
          (List.init (1 + (salt mod 4)) (fun i -> (salt + (i * 7)) mod n))
      in
      let mdist, mowner, mpred = Dijkstra.multi_source g sources in
      let rdist, rowner, rpred = bellman_ford ~multi:true g sources in
      r.dist = bdist && r.pred = bpred && mdist = rdist && mowner = rowner
      && mpred = rpred)

(* ---- Graph against a list model ---- *)

(* Edge attempts over [-1 .. n], so endpoints fall out of range and
   self-loops and duplicates occur; weights include 0, a negative, NaN
   and infinity. The model keeps each row as an insertion-ordered list
   and predicts every rejection's message. *)
let graph_ops_gen =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let weight =
      frequency
        [ (8, map (fun k -> float_of_int k /. 4.0) (int_range 1 12));
          (1, oneofl [ 0.0; -1.0; Float.nan; Float.infinity ]) ]
    in
    let* edges =
      list_size (int_range 0 40)
        (triple (int_range (-1) n) (int_range (-1) n) weight)
    in
    let* factor = oneofl [ 0.5; 1.0; 3.0 ] in
    return (n, edges, factor))

let prop_graph_model =
  qcheck_case ~count:300 "graph: rows, orders and rejections = list model"
    graph_ops_gen (fun (n, attempts, factor) ->
      let g = Graph.create n in
      let rows = Array.make n [] and accepted = ref 0 in
      let expected (u, v, w) =
        if u < 0 || u >= n || v < 0 || v >= n then
          Some "Graph.add_edge: endpoint out of range"
        else if u = v then Some "Graph.add_edge: self-loop"
        else if not (Float.is_finite w) || w <= 0.0 then
          Some "Graph.add_edge: weight must be positive and finite"
        else if List.mem_assoc v rows.(u) then
          Some "Graph.add_edge: duplicate edge"
        else None
      in
      let add ok ((u, v, w) as e) =
        let want = expected e in
        let got =
          match Graph.add_edge g u v w with
          | () -> None
          | exception Invalid_argument msg -> Some msg
        in
        if want = None then begin
          rows.(u) <- rows.(u) @ [ (v, w) ];
          rows.(v) <- rows.(v) @ [ (u, w) ];
          incr accepted
        end;
        ok && got = want
      in
      let rejections_ok = List.fold_left add true attempts in
      let model_edges rows =
        List.concat
          (List.init n (fun u ->
               List.filter_map
                 (fun (v, w) -> if u < v then Some (u, v, w) else None)
                 rows.(u)))
      in
      (* a graph built by replaying an edge list, as scale and Graph_io do *)
      let replay edges =
        let r = Array.make n [] in
        List.iter
          (fun (u, v, w) ->
            r.(u) <- r.(u) @ [ (v, w) ];
            r.(v) <- r.(v) @ [ (u, w) ])
          edges;
        r
      in
      let same_rows g rows =
        List.for_all
          (fun u ->
            let visited = ref [] in
            Graph.iter_neighbors g u (fun v w -> visited := (v, w) :: !visited);
            Graph.neighbors g u = rows.(u)
            (* visit order, against reverse insertion order *)
            && List.rev !visited = List.rev rows.(u)
            && Graph.degree g u = List.length rows.(u)
            && List.for_all
                 (fun v -> Graph.edge_weight g u v = List.assoc_opt v rows.(u))
                 (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let edge_triples g =
        List.map (fun (e : Graph.edge) -> (e.u, e.v, e.w)) (Graph.edges g)
      in
      let edges = model_edges rows in
      let scaled = List.map (fun (u, v, w) -> (u, v, w *. factor)) edges in
      let io = Cr_metric.Graph_io.of_string (edge_list_text g) in
      let weights = List.map (fun (_, _, w) -> w) edges in
      rejections_ok
      && Graph.n g = n
      && Graph.num_edges g = !accepted
      && same_rows g rows
      && edge_triples g = edges
      && Graph.max_degree g
         = List.fold_left (fun m r -> Int.max m (List.length r)) 0
             (Array.to_list rows)
      && Float.equal (Graph.min_edge_weight g)
           (List.fold_left Float.min infinity weights)
      && (let s = Graph.scale g factor in
          same_rows s (replay scaled) && edge_triples s = scaled)
      && same_rows io (replay edges)
      && edge_triples io = edges)

let suite =
  [ Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph rejects bad edges" `Quick test_graph_rejects;
    Alcotest.test_case "graph disconnected" `Quick test_graph_disconnected;
    Alcotest.test_case "dijkstra on a line" `Quick test_dijkstra_line;
    Alcotest.test_case "dijkstra avoids heavy edge" `Quick
      test_dijkstra_shortcut;
    Alcotest.test_case "multi-source prefix closure" `Quick
      test_multi_source_prefix_closed;
    Alcotest.test_case "multi-source unreached nodes, duplicates, rejections"
      `Quick test_multi_source_edge_cases;
    Alcotest.test_case "normalization" `Quick test_metric_normalization;
    Alcotest.test_case "levels" `Quick test_metric_levels;
    Alcotest.test_case "balls" `Quick test_metric_ball;
    Alcotest.test_case "radius_of_size" `Quick test_radius_of_size;
    Alcotest.test_case "nearest_k" `Quick test_nearest_k;
    Alcotest.test_case "of_graph rejects" `Quick test_of_graph_rejects;
    Alcotest.test_case "nearest_in tie-break" `Quick test_nearest_in_tie_break;
    Alcotest.test_case "next_hop adjacency" `Quick test_next_hop;
    Alcotest.test_case "absorbed edge weights keep predecessor forests"
      `Quick test_absorbed_weight_forests;
    Alcotest.test_case "bit accounting" `Quick test_bits;
    Alcotest.test_case "doubling estimate on grid" `Quick test_doubling_grid;
    Alcotest.test_case "doubling grows on hypercubes" `Quick
      test_doubling_hypercube_grows;
    prop_triangle_inequality;
    prop_shortest_path_cost;
    prop_radius_of_size_minimal;
    prop_geo_grid_triangle;
    prop_normalized_min_distance;
    prop_ball_monotone;
    prop_geo_grid_radius_tight;
    prop_nearest_k_brute_force;
    prop_radius_of_size_row;
    prop_of_graph_single_build;
    prop_multi_source_brute_force;
    prop_forest_rows;
    prop_keyed_heap_model;
    prop_dijkstra_bellman_ford;
    prop_graph_model ]

let test_graph_io_roundtrip () =
  let g =
    graph_of_edges 4 [ (0, 1, 1.5); (1, 2, 0.25); (0, 3, 10.0) ]
  in
  let g' = Cr_metric.Graph_io.of_string (edge_list_text g) in
  check_int "n" 4 (Cr_metric.Graph.n g');
  check_int "m" 3 (Cr_metric.Graph.num_edges g');
  check_float "weight preserved" 0.25
    (Option.get (Cr_metric.Graph.edge_weight g' 1 2))

let test_graph_io_rejects () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Graph_io.of_string: empty input") (fun () ->
      ignore (Cr_metric.Graph_io.of_string "# nothing\n"));
  Alcotest.check_raises "bad count"
    (Invalid_argument
       "Graph_io.of_string: line 1: expected a positive node count")
    (fun () -> ignore (Cr_metric.Graph_io.of_string "zero\n"));
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Graph_io.of_string: line 2: expected 'u v w'")
    (fun () -> ignore (Cr_metric.Graph_io.of_string "3\n0 1\n"))

let test_graph_io_files () =
  let g = Cr_graphgen.Grid.square ~side:4 in
  let path = Filename.temp_file "crgraph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (edge_list_text g));
      let g' = Cr_metric.Graph_io.load path in
      check_int "file roundtrip n" 16 (Cr_metric.Graph.n g');
      check_int "file roundtrip m" 24 (Cr_metric.Graph.num_edges g'))

let suite =
  suite
  @ [ Alcotest.test_case "graph io roundtrip" `Quick test_graph_io_roundtrip;
      Alcotest.test_case "graph io rejects" `Quick test_graph_io_rejects;
      Alcotest.test_case "graph io files" `Quick test_graph_io_files ]
