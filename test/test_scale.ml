(* Cr_scale and its kernel: the ball-limited Dijkstra's (Cr_metric.Bounded)
   exact agreement with the full run on the ball (distance, predecessor
   tie-break, owner tie-break), the oracle's cache accounting,
   byte-equality of the sampled harness against the dense all-pairs
   measurement for the same pairs, the zooming model's ceiling, the new
   generators, and pool invariance of the sampled evaluation (the
   CR_DOMAINS contract). *)

open Helpers
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Dijkstra = Cr_metric.Dijkstra
module Bounded = Cr_metric.Bounded
module Oracle = Cr_scale.Oracle
module Nets = Cr_scale.Nets
module Eval = Cr_scale.Eval
module Landmark_scale = Cr_scale.Landmark_scale
module Zoom_scale = Cr_scale.Zoom_scale
module Landmark = Cr_baselines.Landmark
module Stats = Cr_sim.Stats
module Pool = Cr_par.Pool

(* ---- truncated vs full Dijkstra ---- *)

(* (graph, salt): geo, grid, and power-law shapes, sized so qcheck can
   afford a few hundred of them. *)
let graph_gen =
  QCheck2.Gen.(
    pair (int_range 0 2) (int_range 0 1_000_000) >|= fun (kind, salt) ->
    let seed = 1 + (salt mod 64) in
    let g =
      match kind with
      | 0 -> Cr_graphgen.Geometric.knn ~n:(16 + (salt mod 33)) ~k:3 ~seed
      | 1 -> Cr_graphgen.Grid.square ~side:(3 + (salt mod 4))
      | _ ->
        Cr_graphgen.Power_law.preferential ~n:(10 + (salt mod 51)) ~m:2 ~seed
    in
    (g, salt))

(* Radius sweeps 0 .. beyond-eccentricity so both the truncation and the
   degenerate full-graph case are exercised. *)
let pick_radius res salt =
  let ecc = Array.fold_left Float.max 0.0 res.Dijkstra.dist in
  ecc *. (float_of_int (salt mod 7) /. 4.0)

let truncated_agrees =
  qcheck_case ~count:150
    "truncated run = full run on the ball (dist, pred, exhaustive)"
    graph_gen
    (fun (g, salt) ->
      let n = Graph.n g in
      let src = salt mod n in
      let res = Dijkstra.run g src in
      let radius = pick_radius res salt in
      let b = Bounded.create n in
      let settled = Bounded.run b g ~src ~radius in
      let ok = ref (settled = Bounded.settled_count b) in
      for v = 0 to n - 1 do
        if res.Dijkstra.dist.(v) <= radius then
          ok :=
            !ok && Bounded.settled b v
            && Float.equal (Bounded.dist b v) res.Dijkstra.dist.(v)
            && Bounded.pred b v = res.Dijkstra.pred.(v)
        else ok := !ok && not (Bounded.settled b v)
      done;
      !ok)

let multi_truncated_agrees =
  qcheck_case ~count:100
    "truncated multi-source = full multi-source on the ball (owner ties)"
    graph_gen
    (fun (g, salt) ->
      let n = Graph.n g in
      let k = 1 + (salt mod 4) in
      let sources = List.init k (fun i -> (salt + (i * 7)) mod n) in
      let sources = List.sort_uniq compare sources in
      let dist, owner, pred = Dijkstra.multi_source g sources in
      let ecc = Array.fold_left Float.max 0.0 dist in
      let radius = ecc *. (float_of_int (salt mod 7) /. 4.0) in
      let b = Bounded.create n in
      ignore (Bounded.run_multi b g ~sources ~radius);
      let ok = ref true in
      for v = 0 to n - 1 do
        if dist.(v) <= radius then
          ok :=
            !ok && Bounded.settled b v
            && Float.equal (Bounded.dist b v) dist.(v)
            && Bounded.owner b v = owner.(v)
            && Bounded.pred b v = pred.(v)
        else ok := !ok && not (Bounded.settled b v)
      done;
      !ok)

let bounded_validation () =
  let g = Cr_graphgen.Grid.square ~side:3 in
  let b = Bounded.create 9 in
  Alcotest.check_raises "graph size must match"
    (Invalid_argument "Bounded.run: graph size mismatch") (fun () ->
      ignore (Bounded.run b (Cr_graphgen.Grid.square ~side:2) ~src:0
                ~radius:1.0));
  Alcotest.check_raises "NaN radius rejected"
    (Invalid_argument "Bounded.run: radius must be >= 0") (fun () ->
      ignore (Bounded.run b g ~src:0 ~radius:Float.nan));
  Alcotest.check_raises "empty source set rejected"
    (Invalid_argument "Bounded.run_multi: no sources") (fun () ->
      ignore (Bounded.run_multi b g ~sources:[] ~radius:1.0))

(* The allocation regression gate: on a warmed scratch, 1000 single- and
   1000 multi-source runs on a power-law graph allocate nothing on the
   minor heap. The radius is bound once, outside the measured loop: a
   float read from an array inside it would be boxed at every call. *)
let bounded_zero_alloc () =
  let g = Cr_graphgen.Power_law.preferential ~n:2000 ~m:2 ~seed:13 in
  let n = Graph.n g in
  let b = Bounded.create n in
  let radius = 2.0 in
  let sources = [ 5; 600; 1999 ] in
  let burn () =
    let settled = ref 0 in
    for i = 0 to 999 do
      let src = i * 7919 mod n in
      settled :=
        !settled
        + Bounded.run b g ~src ~radius
        + Bounded.run_multi b g ~sources ~radius
    done;
    !settled
  in
  let warm = burn () in
  let before = Gc.minor_words () in
  let again = burn () in
  let after = Gc.minor_words () in
  check_int "settled counts deterministic" warm again;
  check_float "minor words over 1000 run and 1000 run_multi calls" 0.0
    (after -. before)

(* ---- oracle ---- *)

let oracle_cache () =
  let g = Metric.graph (grid6 ()) in
  let o = Oracle.create ~budget:2 g in
  let m = grid6 () in
  ignore (Oracle.row o 0);
  ignore (Oracle.row o 0);
  ignore (Oracle.row o 1);
  ignore (Oracle.row o 2);
  (* 0 was evicted (FIFO budget 2): re-requesting it is a miss again *)
  ignore (Oracle.row o 0);
  let s = Oracle.snapshot o in
  check_int "misses" 4 s.Oracle.misses;
  check_int "hits" 1 s.Oracle.hits;
  check_int "evictions" 2 s.Oracle.evictions;
  check_int "sssp runs" 4 s.Oracle.sssp_runs;
  check_int "cached rows" 2 s.Oracle.cached;
  check_int "settled" (4 * 36) s.Oracle.settled;
  for v = 0 to 35 do
    check_float "row matches the dense matrix" (Metric.dist m 0 v)
      (Oracle.row o 0).(v)
  done;
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Oracle.create: budget must be >= 1") (fun () ->
      ignore (Oracle.create ~budget:0 g))

(* ---- sampled harness = dense harness on the same pairs ---- *)

let landmark_matches_dense () =
  let m = grid6 () in
  let g = Metric.graph m in
  let n = Metric.n m in
  let o = Oracle.create g in
  let lm = Landmark_scale.build o ~seed:3 in
  let dense = Landmark.build m ~seed:3 in
  for v = 0 to n - 1 do
    check_bool "same landmark set" true
      (Landmark.is_landmark dense v = Landmark_scale.is_landmark lm v);
    check_int "same home" (Landmark.home dense v) (Landmark_scale.home lm v);
    check_int "same table bits"
      ((Landmark.labeled_of dense).Cr_sim.Scheme.l_table_bits v)
      (Landmark_scale.table_bits lm v)
  done;
  let pairs = Eval.sample_pairs ~n ~sources:12 ~per_source:8 ~alpha:0.0
      ~seed:17
  in
  let r = Eval.measure g (Landmark_scale.scheme lm) pairs in
  List.iteri
    (fun i (src, dst) ->
      let d, cost, hops = r.Eval.samples.(i) in
      let o = Landmark.route dense ~src ~dst in
      check_float "same denominator" (Metric.dist m src dst) d;
      check_float "same route cost" o.Cr_sim.Scheme.cost cost;
      check_int "same hops (unit weights)" o.Cr_sim.Scheme.hops hops)
    pairs;
  (* and therefore the same summary the dense harness computes *)
  let dense_summary =
    Stats.summarize
      (List.map
         (fun (src, dst) ->
           let o = Landmark.route dense ~src ~dst in
           (Metric.dist m src dst, o.Cr_sim.Scheme.cost, o.Cr_sim.Scheme.hops))
         pairs)
  in
  let s = r.Eval.summary in
  check_float "summary max" dense_summary.Stats.max_stretch
    s.Stats.max_stretch;
  check_float "summary avg" dense_summary.Stats.avg_stretch
    s.Stats.avg_stretch;
  check_float "summary p99" dense_summary.Stats.p99_stretch
    s.Stats.p99_stretch

(* ---- zooming model ---- *)

let zoom_ceiling name mth () =
  let m = mth () in
  let g = Metric.graph m in
  let n = Metric.n m in
  let o = Oracle.create g in
  let z = Zoom_scale.build o ~epsilon:0.5 in
  let pairs = Eval.sample_pairs ~n ~sources:10 ~per_source:10 ~alpha:0.0
      ~seed:17
  in
  let storage, sweep = Zoom_scale.storage z in
  check_bool (name ^ ": exact sweep did work") true (sweep > 0);
  check_bool (name ^ ": bits positive") true (storage.Eval.bits_max > 0);
  let r = Eval.measure g (Zoom_scale.scheme ~storage z) pairs in
  let ceiling = Zoom_scale.stretch_ceiling z in
  Array.iter
    (fun (d, cost, _) ->
      check_bool (name ^ ": cost at least the distance") true (cost >= d);
      check_bool
        (Printf.sprintf "%s: stretch %.3f under the %.3f ceiling" name
           (cost /. d) ceiling)
        true
        (cost /. d <= ceiling))
    r.Eval.samples;
  check_bool (name ^ ": some pair resolves at level 0 with cost 3d") true
    (Array.exists
       (fun (d, cost, hops) -> hops = 0 && Float.equal cost (3.0 *. d))
       r.Eval.samples);
  Alcotest.check_raises "epsilon validated"
    (Invalid_argument "Zoom_scale.build: epsilon must be in (0, 1)")
    (fun () -> ignore (Zoom_scale.build o ~epsilon:1.5))

(* ---- generators ---- *)

let power_law_shape () =
  let n = 400 and m = 3 in
  let g = Cr_graphgen.Power_law.preferential ~n ~m ~seed:13 in
  check_int "node count" n (Graph.n g);
  check_int "edge count" ((m * (m + 1) / 2) + (m * (n - m - 1)))
    (Graph.num_edges g);
  check_bool "connected" true (Graph.is_connected g);
  let g2 = Cr_graphgen.Power_law.preferential ~n ~m ~seed:13 in
  check_bool "deterministic" true (Graph.edges g = Graph.edges g2);
  let degrees = Array.init n (Graph.degree g) in
  Array.sort compare degrees;
  check_bool "heavy tail: max degree well above the mean" true
    (degrees.(n - 1) >= 4 * (2 * Graph.num_edges g) / n);
  Alcotest.check_raises "m >= 1 required"
    (Invalid_argument "Power_law.preferential: m must be >= 1") (fun () ->
      ignore (Cr_graphgen.Power_law.preferential ~n:4 ~m:0 ~seed:1));
  Alcotest.check_raises "m < n required"
    (Invalid_argument "Power_law.preferential: need n > m") (fun () ->
      ignore (Cr_graphgen.Power_law.preferential ~n:3 ~m:3 ~seed:1))

let knn_bucketed_shape () =
  let g = Cr_graphgen.Geometric.knn_bucketed ~n:500 ~k:4 ~seed:11 in
  check_int "node count" 500 (Graph.n g);
  check_bool "connected" true (Graph.is_connected g);
  let g2 = Cr_graphgen.Geometric.knn_bucketed ~n:500 ~k:4 ~seed:11 in
  check_bool "deterministic" true (Graph.edges g = Graph.edges g2);
  check_bool "every node keeps >= k neighbours" true
    (Array.for_all
       (fun v -> Graph.degree g v >= 4)
       (Array.init 500 Fun.id))

(* ---- evaluation harness ---- *)

let eval_pool_invariance () =
  let g = Cr_graphgen.Power_law.preferential ~n:600 ~m:3 ~seed:13 in
  let o = Oracle.create g in
  let lm = Landmark_scale.build o ~seed:3 in
  let z = Zoom_scale.build o ~epsilon:0.5 in
  let pairs =
    Eval.sample_pairs ~n:600 ~sources:24 ~per_source:10 ~alpha:1.0 ~seed:17
  in
  let p3 = Pool.create ~domains:3 () in
  List.iter
    (fun scheme ->
      let seq = Eval.measure ~pool:Pool.sequential g scheme pairs in
      let par = Eval.measure ~pool:p3 g scheme pairs in
      check_bool "summaries byte-identical across pool sizes" true
        (seq.Eval.summary = par.Eval.summary);
      check_bool "samples identical" true (seq.Eval.samples = par.Eval.samples);
      check_int "sssp work identical" seq.Eval.work.Eval.sssp
        par.Eval.work.Eval.sssp;
      check_int "settled work identical" seq.Eval.work.Eval.settled
        par.Eval.work.Eval.settled)
    [ Landmark_scale.scheme lm; Zoom_scale.scheme z ]

let sample_pairs_prefix () =
  let a = Eval.sample_pairs ~n:100 ~sources:8 ~per_source:10 ~alpha:1.0
      ~seed:9
  and b = Eval.sample_pairs ~n:100 ~sources:16 ~per_source:10 ~alpha:1.0
      ~seed:9
  in
  (* growing the source count only appends groups *)
  check_bool "prefix-stable in sources" true
    (a = List.filteri (fun i _ -> i < List.length a) b);
  let c = Eval.sample_pairs ~n:100 ~sources:8 ~per_source:25 ~alpha:1.0
      ~seed:9
  in
  (* growing per_source extends each group in place *)
  let chunk l size = List.init 8 (fun j -> List.filteri
      (fun i _ -> i / size = j) l)
  in
  List.iter2
    (fun small big ->
      check_bool "prefix-stable in per_source" true
        (small = List.filteri (fun i _ -> i < 10) big))
    (chunk a 10) (chunk c 25)

let eval_validation () =
  let g = Cr_graphgen.Grid.square ~side:3 in
  let o = Oracle.create g in
  let lm = Landmark_scale.build o ~seed:3 in
  let scheme = Landmark_scale.scheme lm in
  Alcotest.check_raises "empty pairs rejected"
    (Invalid_argument "Eval.measure: no pairs") (fun () ->
      ignore (Eval.measure g scheme []));
  Alcotest.check_raises "out-of-range endpoint rejected"
    (Invalid_argument "Eval.measure: pair endpoint out of range") (fun () ->
      ignore (Eval.measure g scheme [ (0, 9) ]));
  Alcotest.check_raises "src = dst rejected"
    (Invalid_argument "Eval.measure: src = dst pair") (fun () ->
      ignore (Eval.measure g scheme [ (4, 4) ]))

let case name f = Alcotest.test_case name `Quick f

let suite =
  [ truncated_agrees;
    multi_truncated_agrees;
    case "bounded: validation" bounded_validation;
    case "bounded: warmed runs allocate zero minor words" bounded_zero_alloc;
    case "oracle: hit/miss/eviction accounting and dense agreement"
      oracle_cache;
    case "landmark-scale = dense landmark on grid-6x6 (routes, tables)"
      landmark_matches_dense;
    case "zoom: samples respect the model ceiling (grid-8x8)"
      (zoom_ceiling "grid8" grid8);
    case "zoom: samples respect the model ceiling (geo-48)"
      (zoom_ceiling "geo48" geo48);
    case "power-law generator: shape, determinism, validation"
      power_law_shape;
    case "bucketed kNN generator: shape and determinism" knn_bucketed_shape;
    case "eval: pool-size invariance" eval_pool_invariance;
    case "eval: sampled pairs are prefix-stable" sample_pairs_prefix;
    case "eval: pair validation" eval_validation ]
