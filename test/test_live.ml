(* Cr_obs.Live: quantile-sketch rank error against a sort oracle,
   Space-Saving count-error guarantees, window-ring rotation, merge
   invariances, and the byte-identity of live snapshots across pool
   sizes (the CR_DOMAINS determinism contract). *)

open Helpers
module Live = Cr_obs.Live
module Qsketch = Cr_obs.Qsketch
module Topk = Cr_obs.Topk
module Cost = Cr_obs.Cost
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Simple_ni = Cr_core.Simple_ni
module Ni_scheme = Cr_core.Ni_scheme
module Hier_labeled = Cr_core.Hier_labeled
module Walker = Cr_sim.Walker
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Failures = Cr_sim.Failures
module Engine = Cr_serve.Engine
module Pool = Cr_par.Pool

(* ---- Qsketch ---- *)

let quantile_oracle sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let positive_floats =
  QCheck2.Gen.(list_size (int_range 1 200) (float_range 1e-4 1e4))

let qsketch_rank_error =
  qcheck_case "quantile within the advertised error of the sort oracle"
    positive_floats (fun xs ->
      let s = Qsketch.create () in
      List.iter (Qsketch.add s) xs;
      let sorted = Array.of_list (List.sort Float.compare xs) in
      List.for_all
        (fun p ->
          let est = Qsketch.quantile s p in
          let oracle = quantile_oracle sorted p in
          Float.abs (est -. oracle)
          <= Float.max (Qsketch.rank_error_bound *. oracle) Qsketch.v_min
             +. 1e-9)
        [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let qsketch_exact_accessors =
  qcheck_case "count/max are exact" positive_floats (fun xs ->
      let s = Qsketch.create () in
      List.iter (Qsketch.add s) xs;
      Qsketch.count s = List.length xs
      && Qsketch.max_value s = List.fold_left Float.max neg_infinity xs)

let qsketch_empty () =
  let s = Qsketch.create () in
  check_int "empty count" 0 (Qsketch.count s);
  check_float "empty quantile" 0.0 (Qsketch.quantile s 0.5);
  let neg = Qsketch.create () in
  Qsketch.add neg (-5.0);
  Qsketch.add neg Float.nan;
  check_int "negative and NaN clamp into underflow" 2 (Qsketch.count neg)

(* ---- Topk ---- *)

(* Skewed small-key streams so heavy hitters actually exist. *)
let key_stream =
  QCheck2.Gen.(list_size (int_range 1 300) (int_bound 15 >|= fun k -> k * k / 8))

let true_counts keys =
  let t = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)))
    keys;
  t

let topk_error_bounds =
  qcheck_case "Space-Saving guarantee: count-err <= true <= count, err bounded"
    key_stream (fun keys ->
      let capacity = 4 in
      let t = Topk.create ~capacity in
      List.iter (Topk.add t) keys;
      let truth = true_counts keys in
      let total = List.length keys in
      List.for_all
           (fun (e : Topk.entry) ->
             let tc = Option.value ~default:0 (Hashtbl.find_opt truth e.Topk.key) in
             e.Topk.count - e.Topk.err <= tc
             && tc <= e.Topk.count
             && e.Topk.err <= total / capacity)
           (Topk.top t ~k:capacity))

let topk_finds_heavy_hitters =
  qcheck_case "every key above total/capacity is tracked" key_stream
    (fun keys ->
      let capacity = 4 in
      let t = Topk.create ~capacity in
      List.iter (Topk.add t) keys;
      let truth = true_counts keys in
      let total = List.length keys in
      let tracked = List.map (fun (e : Topk.entry) -> e.Topk.key) (Topk.top t ~k:capacity) in
      Hashtbl.fold
        (fun k c ok -> ok && (c <= total / capacity || List.mem k tracked))
        truth true)

let topk_determinism () =
  let t = Topk.create ~capacity:2 in
  List.iter (Topk.add t) [ 3; 1; 3; 2; 2; 3 ];
  (match Topk.top t ~k:2 with
  | [ a; b ] ->
    check_int "heaviest key" 3 a.Topk.key;
    check_int "heaviest count" 3 a.Topk.count;
    check_int "runner-up deterministic under ties" 2 b.Topk.key
  | _ -> Alcotest.fail "expected two entries");
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Topk.create: capacity must be > 0") (fun () ->
      ignore (Topk.create ~capacity:0))

(* ---- windows and ring rotation ---- *)

let feed live n =
  for i = 1 to n do
    if Live.enabled live then begin
      Live.tick live;
      let status =
        match i mod 3 with
        | 0 -> Live.Undeliverable
        | 1 -> Live.Delivered
        | _ -> Live.Rerouted
      in
      Live.record live ~src:(i mod 5) ~dst:((i + 1) mod 5) ~status ~dist:1.0
        ~cost:(1.0 +. float_of_int (i mod 4)) ~hops:(i mod 7)
    end
  done

let window_rotation () =
  let live = Live.create ~window:4 ~depth:2 ~k:2 () in
  feed live 20;
  check_int "clock counts every tick" 20 (Live.clock live);
  check_int "ring evicted all but depth" 3 (Live.evicted live);
  let ws = Live.windows live in
  check_int "depth windows retained" 2 (List.length ws);
  List.iteri
    (fun i w ->
      check_int "retained windows are the newest, oldest first" (3 + i)
        w.Live.ws_index;
      check_int "each full window holds window-size routes" 4 w.Live.ws_routes)
    ws;
  let t = Live.totals live in
  check_int "totals survive eviction" 20 t.Live.t_routes;
  check_int "undeliverable counted" 6 t.Live.t_undeliverable;
  check_float "delivery rate over the whole run" (14.0 /. 20.0)
    t.Live.t_delivery_rate

let rotation_determinism () =
  let a = Live.create ~window:4 ~depth:2 ~k:2 () in
  let b = Live.create ~window:4 ~depth:2 ~k:2 () in
  feed a 23;
  feed b 23;
  Alcotest.(check string) "identical streams render identically"
    (Live.render a) (Live.render b)

let disabled_null () =
  check_bool "null is disabled" false (Live.enabled Live.null);
  Live.tick Live.null;
  Live.record Live.null ~src:0 ~dst:1 ~status:Live.Delivered ~dist:1.0
    ~cost:1.0 ~hops:1;
  Live.record_edge Live.null ~src:0 ~dst:1;
  check_int "null clock never advances" 0 (Live.clock Live.null);
  check_int "null has no windows" 0 (List.length (Live.windows Live.null))

let edge_guards () =
  let live = Live.create () in
  if Live.enabled live then begin
    Live.tick live;
    Live.record_edge live ~src:2 ~dst:2;
    Live.record_edge live ~src:(-1) ~dst:3;
    Live.record_edge live ~src:3 ~dst:(1 lsl 20);
    check_int "degenerate endpoints are ignored" 0
      (List.length (Live.edge_totals live));
    Live.record_edge live ~src:7 ~dst:3;
    Live.record_edge live ~src:3 ~dst:7;
    match Live.edge_totals live with
    | [ e ] ->
      check_int "edges are undirected, low endpoint first" 3 e.Live.u;
      check_int "high endpoint second" 7 e.Live.v;
      check_int "both directions aggregate" 2 e.Live.messages
    | l -> Alcotest.fail (Printf.sprintf "expected one edge, got %d" (List.length l))
  end

let create_validation () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Live.create: window must be > 0") (fun () ->
      ignore (Live.create ~window:0 ()));
  Alcotest.check_raises "capacity must cover k"
    (Invalid_argument "Live.create: capacity must be >= k") (fun () ->
      ignore (Live.create ~k:10 ~capacity:4 ()))

(* ---- zipf workload ---- *)

let zipf_deterministic () =
  let p1 = Workload.zipf_pairs ~n:64 ~alpha:1.0 ~count:200 ~seed:47 in
  let p2 = Workload.zipf_pairs ~n:64 ~alpha:1.0 ~count:200 ~seed:47 in
  check_bool "same seed, same pairs" true (p1 = p2);
  let prefix = Workload.zipf_pairs ~n:64 ~alpha:1.0 ~count:50 ~seed:47 in
  check_bool "pair i is a function of the seed alone (prefix property)" true
    (prefix = List.filteri (fun i _ -> i < 50) p1);
  let other = Workload.zipf_pairs ~n:64 ~alpha:1.0 ~count:200 ~seed:48 in
  check_bool "different seed, different pairs" false (p1 = other)

let zipf_validity =
  qcheck_case ~count:50 "endpoints in range and distinct"
    QCheck2.Gen.(triple (int_range 2 40) (float_range 0.0 2.5) (int_range 0 1000))
    (fun (n, alpha, seed) ->
      List.for_all
        (fun (u, v) -> u >= 0 && u < n && v >= 0 && v < n && u <> v)
        (Workload.zipf_pairs ~n ~alpha ~count:60 ~seed))

let zipf_skew () =
  (* alpha = 2 concentrates mass on the top rank far beyond uniform *)
  let pairs = Workload.zipf_pairs ~n:64 ~alpha:2.0 ~count:1000 ~seed:47 in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, d) ->
      Hashtbl.replace counts d
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
    pairs;
  let top = Hashtbl.fold (fun _ c acc -> Int.max c acc) counts 0 in
  check_bool "hottest destination well above the uniform share" true
    (top > 200);
  Alcotest.check_raises "n >= 2 required"
    (Invalid_argument "Workload.zipf_pairs: n must be >= 2") (fun () ->
      ignore (Workload.zipf_pairs ~n:1 ~alpha:1.0 ~count:1 ~seed:0));
  Alcotest.check_raises "alpha >= 0 required"
    (Invalid_argument "Workload.zipf_pairs: alpha must be finite and >= 0")
    (fun () ->
      ignore (Workload.zipf_pairs ~n:4 ~alpha:(-1.0) ~count:1 ~seed:0))

(* The degenerate corners that used to loop or slip through: a huge alpha
   collapses the float CDF onto rank 0, so the src-collision resample
   must fall back to a keyed uniform draw instead of spinning; and
   non-finite alphas / negative counts are typed errors, not hangs. The
   new sampled-pair drawers (Cr_scale.Eval) share the sampler and the
   same contract. *)

let zipf_degenerate () =
  let pairs = Workload.zipf_pairs ~n:8 ~alpha:1e6 ~count:100 ~seed:3 in
  check_int "terminates with the full count" 100 (List.length pairs);
  List.iter
    (fun (s, d) -> check_bool "distinct endpoints" true (s <> d))
    pairs;
  Alcotest.check_raises "count >= 0 required"
    (Invalid_argument "Workload.zipf_pairs: count must be >= 0") (fun () ->
      ignore (Workload.zipf_pairs ~n:4 ~alpha:1.0 ~count:(-1) ~seed:0));
  Alcotest.check_raises "nan alpha rejected"
    (Invalid_argument "Workload.zipf_pairs: alpha must be finite and >= 0")
    (fun () ->
      ignore (Workload.zipf_pairs ~n:4 ~alpha:Float.nan ~count:1 ~seed:0));
  Alcotest.check_raises "infinite alpha rejected"
    (Invalid_argument "Workload.zipf_pairs: alpha must be finite and >= 0")
    (fun () ->
      ignore (Workload.zipf_pairs ~n:4 ~alpha:infinity ~count:1 ~seed:0));
  Alcotest.check_raises "sampler rejects n = 0"
    (Invalid_argument "Workload.zipf_sampler: n must be >= 1") (fun () ->
      ignore (Workload.zipf_sampler ~n:0 ~alpha:1.0 ~seed:0 : _ -> int));
  Alcotest.check_raises "sampler rejects non-finite alpha"
    (Invalid_argument "Workload.zipf_sampler: alpha must be finite and >= 0")
    (fun () ->
      ignore (Workload.zipf_sampler ~n:4 ~alpha:infinity ~seed:0 : _ -> int))

let sample_pairs_contract () =
  let module Eval = Cr_scale.Eval in
  let pairs = Eval.sample_pairs ~n:8 ~sources:4 ~per_source:25 ~alpha:1e6
      ~seed:5
  in
  check_int "degenerate alpha still terminates" 100 (List.length pairs);
  List.iter
    (fun (s, d) -> check_bool "distinct endpoints" true (s <> d))
    pairs;
  Alcotest.check_raises "n >= 2 required"
    (Invalid_argument "Eval.sample_pairs: n must be >= 2") (fun () ->
      ignore (Eval.sample_pairs ~n:1 ~sources:1 ~per_source:1 ~alpha:0.0
                ~seed:0));
  Alcotest.check_raises "sources >= 1 required"
    (Invalid_argument "Eval.sample_pairs: sources must be >= 1") (fun () ->
      ignore (Eval.sample_pairs ~n:4 ~sources:0 ~per_source:1 ~alpha:0.0
                ~seed:0));
  Alcotest.check_raises "per_source >= 1 required"
    (Invalid_argument "Eval.sample_pairs: per_source must be >= 1") (fun () ->
      ignore (Eval.sample_pairs ~n:4 ~sources:1 ~per_source:0 ~alpha:0.0
                ~seed:0));
  Alcotest.check_raises "finite alpha required"
    (Invalid_argument "Eval.sample_pairs: alpha must be finite and >= 0")
    (fun () ->
      ignore (Eval.sample_pairs ~n:4 ~sources:1 ~per_source:1
                ~alpha:Float.nan ~seed:0))

(* ---- pool-size byte-identity (the CR_DOMAINS contract) ---- *)

let degraded_fixture =
  memo (fun () ->
      let m = grid6 () in
      let nt = Netting_tree.build (Hierarchy.build m) in
      let naming = Workload.random_naming ~n:(Cr_metric.Metric.n m) ~seed:42 in
      let hl = Hier_labeled.build nt ~epsilon:0.5 in
      let ni =
        Simple_ni.build nt ~epsilon:0.5 ~naming
          ~underlying:(Hier_labeled.to_underlying hl)
      in
      let failures = Failures.create ~edges:[ (0, 1); (7, 13) ] ~nodes:[ 20 ] () in
      (m, naming, Ni_scheme.degraded_scheme ni ~failures))

let live_snapshot pool =
  let m, naming, degraded = degraded_fixture () in
  let pairs = Workload.sample_pairs ~n:(Cr_metric.Metric.n m) ~count:300 ~seed:5 in
  let live = Live.create ~window:50 ~depth:4 ~k:3 () in
  ignore (Stats.measure_degraded ~pool ~live m degraded naming pairs);
  Live.render live

let pool_size_invariance () =
  let reference = live_snapshot (Pool.create ~domains:1 ()) in
  check_bool "reference snapshot saw every route" true
    (String.length reference > 0);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "live snapshot at %d domains" domains)
        reference
        (live_snapshot (Pool.create ~domains ())))
    [ 2; 4 ]

(* ---- walker edge telemetry and the conservation invariant ---- *)

let walker_conservation () =
  let m, naming, _ = degraded_fixture () in
  let n = Cr_metric.Metric.n m in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let ni =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  let live = Live.create ~window:50 ~k:3 () in
  let cost = Cost.create () in
  let pairs = Workload.sample_pairs ~n ~count:120 ~seed:9 in
  List.iter
    (fun (src, dst) ->
      if Live.enabled live then begin
        Live.tick live;
        let w =
          Walker.create ~cost ~live m ~start:src ~max_hops:(Walker.ni_budget n)
        in
        Ni_scheme.walk ni w ~dest_name:naming.Workload.name_of.(dst);
        Live.record live ~src ~dst ~status:Live.Delivered
          ~dist:(Cr_metric.Metric.dist m src dst)
          ~cost:(Walker.cost w) ~hops:(Walker.hops w)
      end)
    pairs;
  let ledger =
    List.fold_left
      (fun acc (e : Cost.edge_load) -> acc + e.Cost.messages)
      0 (Cost.edge_loads cost)
  in
  let t = Live.totals live in
  check_int "live edge totals equal the Cost ledger" ledger
    t.Live.t_edge_messages;
  check_int "every pair ticked once" (List.length pairs) (Live.clock live);
  check_bool "hot edges are non-empty" true (Live.hot_edges live <> [])

(* ---- served routes ---- *)

let serve_live () =
  let m = grid6 () in
  let engine = Engine.compile_full m in
  let pairs =
    Array.of_list (Workload.sample_pairs ~n:(Cr_metric.Metric.n m) ~count:150 ~seed:3)
  in
  let plain = Engine.batch engine pairs in
  let live = Live.create ~window:25 ~depth:3 ~k:3 () in
  let with_live = Engine.batch ~live engine pairs in
  check_bool "live serving returns identical outcomes" true
    (plain = with_live);
  let t = Live.totals live in
  check_int "one tick per served route" (Array.length pairs)
    (Live.clock live);
  check_int "served routes always deliver" (Array.length pairs)
    t.Live.t_delivered;
  let cost = Cost.create () in
  Array.iter
    (fun (src, dst) -> ignore (Engine.route ~cost engine ~src ~dst))
    pairs;
  let ledger =
    List.fold_left
      (fun acc (e : Cost.edge_load) -> acc + e.Cost.messages)
      0 (Cost.edge_loads cost)
  in
  check_int "served edge telemetry matches the Cost ledger" ledger
    t.Live.t_edge_messages

let case name f = Alcotest.test_case name `Quick f

let suite =
  [ qsketch_rank_error;
    qsketch_exact_accessors;
    case "qsketch: empty and clamped observations" qsketch_empty;
    topk_error_bounds;
    topk_finds_heavy_hitters;
    case "topk: deterministic ordering and validation" topk_determinism;
    case "windows: ring rotation, eviction, run totals" window_rotation;
    case "windows: identical streams render identically" rotation_determinism;
    case "null accumulator is inert" disabled_null;
    case "record_edge: guards and undirected aggregation" edge_guards;
    case "create: parameter validation" create_validation;
    case "zipf: keyed determinism and prefix property" zipf_deterministic;
    zipf_validity;
    case "zipf: skew concentrates and validation raises" zipf_skew;
    case "zipf: degenerate alpha terminates, bad inputs are typed errors"
      zipf_degenerate;
    case "scale sampler: degenerate alpha and validation contract"
      sample_pairs_contract;
    case "live snapshots byte-identical across pool sizes"
      pool_size_invariance;
    case "walker telemetry conserves against the Cost ledger"
      walker_conservation;
    case "served routes: outcomes unchanged, telemetry conserved" serve_live ]
