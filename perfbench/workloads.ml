(* The four benchmark workloads. Each one generates its inputs from the
   seed, sets up repeatedly (timing every set-up), serves or runs in a
   closed loop — one caller, the next request issued only when the
   previous one returned — for the measured seconds, then checks its
   outputs. Every library call sits inside a [Prof.call] whose name
   starts with the layer it measures.

   Why these four, and which layer each one exercises or bypasses, is
   recorded in README.md and BENCHMARK.json. *)

module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Workload = Cr_sim.Workload
module Scheme = Cr_sim.Scheme
module Engine = Cr_serve.Engine
module Hier = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Sfni = Cr_core.Scale_free_ni
module Oracle = Cr_scale.Oracle
module Eval = Cr_scale.Eval
module Landmark_scale = Cr_scale.Landmark_scale
module Zoom_scale = Cr_scale.Zoom_scale
module Nets = Cr_scale.Nets
module Network = Cr_proto.Network
module Cost = Cr_obs.Cost
module Live = Cr_obs.Live
module Pool = Cr_par.Pool
module Sample = Prof.Sample

(* {1 Sizes and seeds} *)

type size = {
  geo_n : int;  (** serve-ni: Geometric.knn ~k:3 nodes *)
  serve_pairs : int;  (** distinct pairs served *)
  chunk : int;  (** pairs per Engine.batch call *)
  probe_pairs : int;  (** pairs whose single routes and lookups are timed *)
  route_chunk : int;  (** sequential Engine.route calls per engine per round *)
  lookup_chunk : int;  (** Engine.next_hop calls per engine per round *)
  check_pairs : int;  (** pairs checked served = walked *)
  plaw_n : int;
  plaw_sources : int;
  plaw_per_source : int;
  plaw_group : int;  (** sources per Eval.measure batch call *)
  plaw_probe : int;  (** sources whose single routes are timed *)
  dist_n : int;  (** construct-dist: Geometric.knn ~k:3 nodes *)
  packing_j : int;
  setup_reps : int;
  setup_min_s : float;
}

let full =
  { geo_n = 512; serve_pairs = 4000; chunk = 1000;
    probe_pairs = 1000; route_chunk = 250; lookup_chunk = 500;
    check_pairs = 300; plaw_n = 10_000; plaw_sources = 128;
    plaw_per_source = 40; plaw_group = 8; plaw_probe = 16; dist_n = 128;
    packing_j = 4;
    setup_reps = 3; setup_min_s = 3.0 }

(* Seconds-scale sizes for the benchmark's self-check. *)
let toy =
  { geo_n = 96; serve_pairs = 400; chunk = 100;
    probe_pairs = 100; route_chunk = 50; lookup_chunk = 50; check_pairs = 50;
    plaw_n = 1500; plaw_sources = 8; plaw_per_source = 10; plaw_group = 4;
    plaw_probe = 2; dist_n = 48;
    packing_j = 3; setup_reps = 2; setup_min_s = 0.0 }

(* The repository's experiment seeds; workload seed 0 reproduces them
   exactly. A workload is a fixed instance plus a request stream: the
   graphs (geo seed 11, plaw seed 13) and the landmark sample are part
   of the instance, like the repository's named families. Seed s shifts
   every request-side seed — pairs, naming, message schedule — by
   1000 s, so the inputs are a pure function of the seed while the
   figures measure the code rather than which random graph was drawn. *)
let geo_seed = 11
let plaw_seed = 13
let pair_seed = 17
let naming_seed = 42
let landmark_seed = 3
let jitter_seed = 5

(* Relative delay jitter of the simulated network (see Network.create). *)
let jitter = 0.1

type config = {
  seed : int;
  seconds : float;
  size : size;
  pool : Pool.t;
}

let seed_of c base = base + (1000 * c.seed)
let epsilon = 0.5

(* Thm 1.4's 9 + eps stretch plus the 2/eps additive slack the
   repository's report checker allows on finite instances. *)
let ni_ceiling = 9.0 +. epsilon +. (2.0 /. epsilon)
let election_radius = 4.0

(* {1 Results} *)

type result = {
  attempted : int;
  failed : int;
  notes : string list;  (** first few failure descriptions *)
  e2e : (string * float) list;  (** every end-to-end metric but peak_rss_mb *)
  layer : (string * float) list;  (** per-layer values known to the workload *)
  info : (string * int) list;  (** input shape: n, edges, pairs *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; notes = [] }
let attempt t k = t.attempted <- t.attempted + k

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.notes < 8 then t.notes <- msg :: t.notes

(* A call that may raise: a raise counts as one failed operation. *)
let guarded t what f =
  match f () with
  | v -> Some v
  | exception e ->
    fail t (what ^ ": " ^ Printexc.to_string e);
    None

(* [setups c build] runs [build] at least [setup_reps] times and until
   [setup_min_s] seconds are spent (at most 400 times), each inside a
   ["phase.setup"] span, and returns the last state with the median
   set-up seconds: a cheap set-up is repeated until its median is
   steady. Each set-up starts from a fully collected heap holding no
   earlier state, and so does the measured phase after the last one, so
   the timings do not depend on when the GC last ran. *)
let setups c build =
  let times = Sample.create () in
  let last = ref None and spent = ref 0.0 in
  while
    Sample.length times < c.size.setup_reps
    || (!spent < c.size.setup_min_s && Sample.length times < 400)
  do
    last := None;
    Gc.compact ();
    let v, dt, _ = Prof.call "phase.setup" build in
    Sample.add times dt;
    spent := !spent +. dt;
    last := Some v
  done;
  Gc.compact ();
  (Option.get !last, Prof.median (Sample.to_array times))

let chunks_of arr size =
  let n = Array.length arr in
  Array.init ((n + size - 1) / size) (fun i ->
      Array.sub arr (i * size) (Int.min size (n - (i * size))))

let fsum f arr = Array.fold_left (fun acc x -> acc +. f x) 0.0 arr
let quantiles s = (Prof.quantile 0.5 s, Prof.quantile 0.99 s)

(* {1 Median figures}

   The benchmark's host shares its cores and its speed drifts: a fixed
   CPU loop on a 2-vCPU VM read up to 1.7x apart, in spells of seconds
   to tens of seconds. So every unit of timed work — one chunk's batch
   round, one pair's single route, one lookup, one protocol — is
   repeated across the rounds of the measured seconds, every repetition
   is kept, and the unit is read as its median repetition: throughput is
   the work of all the chunks, served in turn, over the sum of their
   median round times, and the latency percentiles are taken over a fixed probe set of
   the workload's requests (its first pairs, enough for ten samples
   beyond p99), each at its median latency. A median over the whole run
   follows the host's usual speed; the fastest repetition would follow
   its rare fast spells, which some runs catch and others miss. *)

(* The repetitions of each of a fixed set of timed units. *)
type reps = Sample.t array

let reps n = Array.init n (fun _ -> Sample.create ~capacity:16 ())
let record (r : reps) i x = Sample.add r.(i) x

(* Each unit's median repetition; nan for a unit never timed. *)
let medians (r : reps) =
  Array.map
    (fun s -> if Sample.length s = 0 then Float.nan else Prof.median (Sample.to_array s))
    r

let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a))

(* Work ÷ the sum of per-unit median times. *)
let median_rate ~work times = work /. fsum Fun.id times

(* [repeat_rate span n chunks f] calls [f chunk] [n] times on every
   chunk, each inside a [span] span, and returns the median rate in
   chunk elements per second. *)
let repeat_rate span n chunks f =
  let r = reps (Array.length chunks) in
  Array.iteri
    (fun k chunk ->
      for _ = 1 to n do
        let _, dt, _ = Prof.call span (fun () -> f chunk) in
        record r k dt
      done)
    chunks;
  let work = Array.fold_left (fun a ch -> a + Array.length ch) 0 chunks in
  median_rate ~work:(float_of_int work) (medians r)

(* {1 serve-ni}

   One round serves chunk [k] through every engine's batch call, then
   times [route_chunk] single routes and [lookup_chunk] next-hop
   decisions per engine; the route and lookup slices
   rotate through the probe set from round to round. Rounds continue until
   the measured seconds are spent and every chunk has been served once;
   that first pass fixes the deterministic figures (hops, stretch). *)

type served = {
  kind : string;
  engine : Engine.t;
}

type serve_stats = {
  ops_per_s : float;  (** median batch throughput, all engines *)
  route_us : float array;  (** per (engine, pair) median route latency *)
  first_pass : (string * Scheme.outcome array) list;  (** per kind, pair order *)
  route_ns_per_hop : (string * float) list;
  lookup_ns : (string * float array) list;  (** per pair median next_hop latency *)
}

let stretch metric (src, dst) (o : Scheme.outcome) =
  o.Scheme.cost /. Metric.dist metric src dst

let serve_loop c t ~metric served pairs =
  let graph = Metric.graph metric in
  let chunks = chunks_of pairs c.size.chunk in
  let nchunks = Array.length chunks in
  let npairs = Array.length pairs in
  let probe = Array.sub pairs 0 (Int.min c.size.probe_pairs npairs) in
  let nprobe = Array.length probe in
  let per_kind () = List.map (fun s -> (s.kind, reps nprobe)) served in
  let first = List.map (fun s -> (s.kind, Array.make nchunks [||])) served in
  let round_reps = reps nchunks in
  let route_reps = per_kind () and lookup_reps = per_kind () in
  let deadline = Prof.now () +. c.seconds in
  let round = ref 0 in
  while !round < nchunks || Prof.now () < deadline do
    let k = !round mod nchunks in
    let chunk = chunks.(k) in
    let len = Array.length chunk in
    let secs = ref 0.0 and ok = ref true in
    List.iter
      (fun s ->
        attempt t len;
        match
          guarded t (s.kind ^ " batch") (fun () ->
              Prof.call ("serve." ^ s.kind ^ ".batch") (fun () ->
                  Engine.batch ~pool:c.pool s.engine chunk))
        with
        | None -> ok := false
        | Some (out, dt, _) ->
          secs := !secs +. dt;
          if !round < nchunks then (List.assoc s.kind first).(k) <- out)
      served;
    if !ok then record round_reps k !secs;
    (* closed-loop single calls on a probe slice rotating with the round *)
    let off = !round * c.size.route_chunk mod nprobe in
    let timed_slice kind count span f r =
      let lat = Array.make count Float.nan in
      attempt t count;
      match
        guarded t (kind ^ " " ^ span) (fun () ->
            Prof.span ("serve." ^ kind ^ "." ^ span) (fun () ->
                for i = 0 to count - 1 do
                  let src, dst = probe.((off + i) mod nprobe) in
                  let t0 = Prof.now () in
                  f i ~src ~dst;
                  lat.(i) <- Prof.now () -. t0
                done))
      with
      | None -> false
      | Some () ->
        Array.iteri (fun i x -> record r ((off + i) mod nprobe) x) lat;
        true
    in
    List.iter
      (fun s ->
        ignore
          (timed_slice s.kind c.size.route_chunk "route"
             (fun _ ~src ~dst -> ignore (Engine.route s.engine ~src ~dst))
             (List.assoc s.kind route_reps)))
      served;
    List.iter
      (fun s ->
        let hops = Array.make c.size.lookup_chunk 0 in
        if
          timed_slice s.kind c.size.lookup_chunk "next_hop"
            (fun i ~src ~dst -> hops.(i) <- Engine.next_hop s.engine ~src ~dst)
            (List.assoc s.kind lookup_reps)
        then
          Array.iteri
            (fun i v ->
              let src = fst probe.((off + i) mod nprobe) in
              if Graph.edge_weight graph src v = None then
                fail t (Printf.sprintf "%s: next_hop %d not adjacent to %d" s.kind v src))
            hops)
      served;
    incr round
  done;
  let first_pass =
    List.map (fun (kind, per_chunk) -> (kind, Array.concat (Array.to_list per_chunk))) first
  in
  let route_med = List.map (fun (k, r) -> (k, medians r)) route_reps in
  let ns_per_hop (kind, med) =
    let out = List.assoc kind first_pass in
    let secs = ref 0.0 and hops = ref 0 in
    Array.iteri
      (fun p x ->
        if Float.is_finite x && p < Array.length out then begin
          secs := !secs +. x;
          hops := !hops + out.(p).Scheme.hops
        end)
      med;
    (kind, 1e9 *. !secs /. float_of_int (Int.max 1 !hops))
  in
  { ops_per_s =
      median_rate ~work:(float_of_int (npairs * List.length served)) (medians round_reps);
    route_us =
      Array.map (fun x -> x *. 1e6) (finite (Array.concat (List.map snd route_med)));
    first_pass;
    route_ns_per_hop = List.map ns_per_hop route_med;
    lookup_ns =
      List.map
        (fun (k, r) -> (k, Array.map (fun x -> x *. 1e9) (finite (medians r))))
        lookup_reps }

(* serve-ni's end-to-end figures. *)
let serve_e2e ~setup_s st =
  let routes = List.fold_left (fun a (_, o) -> a + Array.length o) 0 st.first_pass in
  let hops =
    List.fold_left
      (fun a (_, o) -> a +. fsum (fun o -> float_of_int o.Scheme.hops) o)
      0.0 st.first_pass
  in
  let p50, p99 = quantiles st.route_us in
  [ ("setup_s", setup_s);
    ("ops_per_s", st.ops_per_s);
    ("op_us_p50", p50);
    ("op_us_p99", p99);
    ("msgs_per_op", hops /. float_of_int (Int.max 1 routes)) ]

(* Per-layer figures for one served engine. *)
let served_layer ~chunk metric pairs st kind =
  let out = List.assoc kind st.first_pass in
  let n = Array.length out in
  let hops = fsum (fun o -> float_of_int o.Scheme.hops) out in
  let ns_hop = List.assoc kind st.route_ns_per_hop in
  let p = "serve." ^ kind in
  let batch = "serve." ^ kind ^ ".batch" in
  let stretches = Array.mapi (fun i o -> stretch metric pairs.(i) o) out in
  [ (p ^ ".batch_s", Prof.med_s batch);
    (p ^ ".hops", hops /. float_of_int (Int.max 1 n));
    (p ^ ".ns_per_hop", ns_hop);
    (p ^ ".alloc_w_per_route", Prof.med_words batch /. float_of_int chunk);
    (p ^ ".stretch_p99", Prof.quantile 0.99 stretches) ]
  @
  match List.assoc_opt kind st.lookup_ns with
  | Some lat when Array.length lat > 0 ->
    let l50, l99 = quantiles lat in
    [ (p ^ ".lookup_ns_p50", l50);
      (p ^ ".lookup_ns_p99", l99);
      (p ^ ".lookup_per_hop", l50 /. ns_hop) ]
  | _ -> []

let compiled_layer kind engine =
  let n = Engine.n engine in
  let bits = ref 0 in
  for v = 0 to n - 1 do
    bits := Int.max !bits (Engine.compiled_bits engine v)
  done;
  let p = "serve." ^ kind in
  [ (p ^ ".compile_s", Prof.med_s (p ^ ".compile"));
    (p ^ ".bytes_per_node", Engine.bytes_per_node engine);
    (p ^ ".compiled_bits_max", float_of_int !bits) ]

let core_layer kind =
  let p = "core." ^ kind in
  [ (p ^ ".build_s", Prof.med_s (p ^ ".build"));
    (p ^ ".alloc_mw", Prof.med_words (p ^ ".build") /. 1e6) ]

let substrate_layer h =
  [ ("metric.of_graph.s", Prof.med_s "metric.of_graph");
    ("metric.of_graph.alloc_mw", Prof.med_words "metric.of_graph" /. 1e6);
    ("nets.build.s", Prof.med_s "nets.hierarchy" +. Prof.med_s "nets.netting_tree");
    ("nets.levels", float_of_int (Hierarchy.top_level h + 1)) ]

let graph_info graph pairs =
  [ ("n", Graph.n graph); ("edges", Graph.num_edges graph); ("pairs", pairs) ]

(* The served = walked rule of E20: on [check_pairs] pairs, the engine's
   route has exactly the cost (Float.equal) and hop count of the scheme's
   own walk. *)
let check_walked c t kind engine walk pairs =
  let k = Int.min c.size.check_pairs (Array.length pairs) in
  attempt t k;
  for i = 0 to k - 1 do
    let src, dst = pairs.(i) in
    match (Engine.route engine ~src ~dst, walk ~src ~dst) with
    | (a : Scheme.outcome), (b : Scheme.outcome) ->
      if not (Float.equal a.Scheme.cost b.Scheme.cost && a.Scheme.hops = b.Scheme.hops)
      then fail t (Printf.sprintf "%s: served route %d->%d differs from walk" kind src dst)
    | exception e -> fail t (kind ^ " walk: " ^ Printexc.to_string e)
  done

(* Route quality of the first pass. The gate is E21's intact-graph
   rule, p99 stretch within 3% of 9 + eps + 2/eps; a single route above
   9 + eps + 2/eps is counted in [serve.<kind>.over_ceiling], not failed:
   the scheme's own walked routes exceed it on geo graphs other than the
   repository's seed-11 instances (the served = walked check still holds
   route for route), so it is a property of the construction on those
   inputs, not of the serving layer this benchmark times. *)
let quality_gate t metric pairs st kind =
  let stretches =
    Array.mapi (fun i o -> stretch metric pairs.(i) o) (List.assoc kind st.first_pass)
  in
  let p99 = Prof.quantile 0.99 stretches in
  attempt t 1;
  if not (p99 <= 1.03 *. ni_ceiling) then
    fail t (Printf.sprintf "%s: p99 stretch %.3f over 1.03 (9 + eps + 2/eps)" kind p99);
  let over = Array.fold_left (fun a s -> if s > ni_ceiling then a + 1 else a) 0 stretches in
  [ ("serve." ^ kind ^ ".over_ceiling", float_of_int over) ]

(* [par.batch_speedup]: median batch throughput on the default pool
   over Pool.sequential's, on the same chunks (traced run only). *)
let batch_speedup c served pairs =
  let chunks = chunks_of pairs c.size.chunk in
  let rate pool =
    fsum
      (fun s ->
        repeat_rate "par.batch_compare" 3 chunks (Engine.batch ~pool s.engine))
      (Array.of_list served)
  in
  rate c.pool /. rate Pool.sequential

let ledger_edge_messages cost =
  List.fold_left (fun acc (e : Cost.edge_load) -> acc + e.Cost.messages) 0
    (Cost.edge_loads cost)

(* The telemetry layer on the simple-ni engine, untimed by the end-to-end
   figures: a [Cr_obs.Live] accumulator must not change served outcomes
   (the probe chunk's live batch equals its plain batch), and its edge
   total must equal the [Cost] ledger's on the same single routes
   (E21's conservation). The traced run also reports the median live
   batch throughput over the plain one on that chunk. E21's window
   settings: 250-route windows, 8 deep, top-3 heavy hitters. *)
let live_check c t engine plain pairs =
  let chunk = Array.sub pairs 0 (Int.min c.size.chunk (Array.length pairs)) in
  let live () = Live.create ~window:250 ~depth:8 ~k:3 () in
  attempt t (Array.length chunk);
  let with_live =
    Prof.span "obs.live_batch" (fun () -> Engine.batch ~pool:c.pool ~live:(live ()) engine chunk)
  in
  if with_live <> Array.sub plain 0 (Array.length chunk) then
    fail t "simple-ni: live batch outcomes differ from plain batch";
  let lv = live () and cost = Cost.create () in
  let k = Int.min c.size.check_pairs (Array.length pairs) in
  attempt t k;
  Prof.span "obs.live_route" (fun () ->
      for i = 0 to k - 1 do
        let src, dst = pairs.(i) in
        ignore (Engine.route ~cost ~live:lv engine ~src ~dst)
      done);
  let records = (Live.totals lv).Live.t_edge_messages and ledger = ledger_edge_messages cost in
  if records <> ledger then
    fail t (Printf.sprintf "simple-ni: live edge total %d <> cost ledger %d" records ledger);
  let on_off =
    if not (Prof.tracing ()) then Float.nan
    else
      let rate f = repeat_rate "obs.live_compare" 3 [| chunk |] f in
      rate (fun ch -> Engine.batch ~pool:c.pool ~live:(live ()) engine ch)
      /. rate (fun ch -> Engine.batch ~pool:c.pool engine ch)
  in
  [ ("obs.live.on_off", on_off);
    ("obs.live.edge_records", float_of_int records);
    ("obs.cost.edge_messages", float_of_int ledger) ]

type ni_state = {
  metric : Metric.t;
  h : Hierarchy.t;
  sni : Simple_ni.t;
  sfni : Sfni.t;
  e_hier : Engine.t;
  e_sfl : Engine.t;
  e_sni : Engine.t;
  e_sfni : Engine.t;
}

let substrate c graph =
  let metric = Prof.span "metric.of_graph" (fun () -> Metric.of_graph ~pool:c.pool graph) in
  let h = Prof.span "nets.hierarchy" (fun () -> Hierarchy.build metric) in
  let nt = Prof.span "nets.netting_tree" (fun () -> Netting_tree.build h) in
  (metric, h, nt)

let serve_ni c =
  let t = tally () in
  let n = c.size.geo_n in
  let graph =
    Prof.span "graphgen.knn" (fun () ->
        Cr_graphgen.Geometric.knn ~n ~k:3 ~seed:geo_seed)
  in
  let naming, pairs =
    Prof.span "graphgen.pairs" (fun () ->
        ( Workload.random_naming ~n ~seed:(seed_of c naming_seed),
          Array.of_list
            (Workload.sample_pairs ~n ~count:c.size.serve_pairs
               ~seed:(seed_of c pair_seed)) ))
  in
  let pool = c.pool in
  let build () =
    let metric, h, nt = substrate c graph in
    let hl = Prof.span "core.hier.build" (fun () -> Hier.build ~pool nt ~epsilon) in
    let sfl = Prof.span "core.sfl.build" (fun () -> Sfl.build ~pool nt ~epsilon) in
    let sni =
      Prof.span "core.simple-ni.build" (fun () ->
          Simple_ni.build ~pool nt ~epsilon ~naming
            ~underlying:(Hier.to_underlying hl))
    in
    let sfni =
      Prof.span "core.sf-ni.build" (fun () ->
          Sfni.build ~pool nt ~epsilon ~naming ~underlying:(Sfl.to_underlying sfl))
    in
    let e_hier = Prof.span "serve.hier.compile" (fun () -> Engine.compile_hier ~pool hl) in
    let e_sfl =
      Prof.span "serve.sfl.compile" (fun () -> Engine.compile_scale_free_labeled ~pool sfl)
    in
    let e_sni =
      Prof.span "serve.simple-ni.compile" (fun () ->
          Engine.compile_simple_ni ~pool ~underlying:e_hier sni)
    in
    let e_sfni =
      Prof.span "serve.sf-ni.compile" (fun () ->
          Engine.compile_scale_free_ni ~pool ~underlying:e_sfl sfni)
    in
    { metric; h; sni; sfni; e_hier; e_sfl; e_sni; e_sfni }
  in
  let st, setup_s = setups c build in
  let served =
    [ { kind = "simple-ni"; engine = st.e_sni }; { kind = "sf-ni"; engine = st.e_sfni } ]
  in
  let stats =
    Prof.span "phase.serve" (fun () ->
        serve_loop c t ~metric:st.metric served pairs)
  in
  let dest_name dst = naming.Workload.name_of.(dst) in
  let quality, speedup =
    Prof.span "phase.check" (fun () ->
        check_walked c t "simple-ni" st.e_sni
          (fun ~src ~dst ->
            (Simple_ni.to_scheme st.sni).Scheme.route_to_name ~src
              ~dest_name:(dest_name dst))
          pairs;
        check_walked c t "sf-ni" st.e_sfni
          (fun ~src ~dst ->
            (Sfni.to_scheme st.sfni).Scheme.route_to_name ~src
              ~dest_name:(dest_name dst))
          pairs;
        let quality =
          List.concat_map (quality_gate t st.metric pairs stats) [ "simple-ni"; "sf-ni" ]
          @ live_check c t st.e_sni (List.assoc "simple-ni" stats.first_pass) pairs
        in
        (quality, if Prof.tracing () then batch_speedup c served pairs else Float.nan))
  in
  { attempted = t.attempted;
    failed = t.failed;
    notes = List.rev t.notes;
    e2e = serve_e2e ~setup_s stats;
    layer =
      substrate_layer st.h
      @ List.concat_map core_layer [ "hier"; "sfl"; "simple-ni"; "sf-ni" ]
      @ List.concat_map (fun (k, e) -> compiled_layer k e)
          [ ("hier", st.e_hier); ("sfl", st.e_sfl); ("simple-ni", st.e_sni);
            ("sf-ni", st.e_sfni) ]
      @ List.concat_map (served_layer ~chunk:c.size.chunk st.metric pairs stats) [ "simple-ni"; "sf-ni" ]
      @ quality
      @ [ ("par.domains", float_of_int (Pool.domains pool));
          ("par.batch_speedup", speedup) ];
    info = graph_info graph (Array.length pairs) }

(* {1 scale-plaw} *)

type scale_state = {
  oracle : Oracle.t;
  lm : Landmark_scale.t;
  zoom : Zoom_scale.t;
  sweep_settled : int;
  schemes : (string * Eval.scheme) list;
}

let scale_plaw c =
  let t = tally () in
  let n = c.size.plaw_n in
  let graph =
    Prof.span "graphgen.preferential" (fun () ->
        Cr_graphgen.Power_law.preferential ~n ~m:3 ~seed:plaw_seed)
  in
  let pairs =
    Prof.span "graphgen.pairs" (fun () ->
        Array.of_list
          (Eval.sample_pairs ~n ~sources:c.size.plaw_sources
             ~per_source:c.size.plaw_per_source ~alpha:0.0
             ~seed:(seed_of c pair_seed)))
  in
  let pool = c.pool in
  let build () =
    let oracle = Prof.span "scale.oracle.create" (fun () -> Oracle.create graph) in
    let lm =
      Prof.span "scale.landmark.build" (fun () ->
          Landmark_scale.build ~pool oracle ~seed:landmark_seed)
    in
    let zoom = Prof.span "scale.zoom.build" (fun () -> Zoom_scale.build oracle ~epsilon) in
    let storage, sweep_settled =
      Prof.span "scale.zoom.storage" (fun () -> Zoom_scale.storage ~pool ~sample:64 zoom)
    in
    { oracle; lm; zoom; sweep_settled;
      schemes =
        [ ("landmark",
           Landmark_scale.scheme ~storage:(Landmark_scale.storage lm) lm);
          ("zoom", Zoom_scale.scheme ~storage zoom) ] }
  in
  let st, setup_s = setups c build in
  let g = Oracle.graph st.oracle in
  let levels = Nets.top_level (Zoom_scale.nets st.zoom) in
  let ceiling = function
    | "landmark" -> 3.0
    | _ -> Zoom_scale.stretch_ceiling st.zoom
  in
  let chunks = chunks_of pairs (c.size.plaw_group * c.size.plaw_per_source) in
  let nchunks = Array.length chunks in
  let npairs = Array.length pairs in
  let first = List.map (fun (k, _) -> (k, Array.make nchunks None)) st.schemes in
  let round_reps = reps nchunks in
  let probe = Array.sub pairs 0 (Int.min npairs (c.size.plaw_probe * c.size.plaw_per_source)) in
  let route_reps = List.map (fun (k, _) -> (k, reps (Array.length probe))) st.schemes in
  (* one Eval.measure call, with the stretch ceilings and E22's settled
     receipt n * sources * (levels + 3) checked on its result *)
  let measure name scheme ps =
    attempt t (Array.length ps);
    match
      guarded t ("eval " ^ name) (fun () ->
          Prof.call ("scale.eval." ^ name) (fun () ->
              Eval.measure ~pool g scheme (Array.to_list ps)))
    with
    | None -> None
    | Some (r, dt, _) ->
      let ceil = ceiling name +. 1e-9 in
      Array.iter
        (fun (d, cost, _) ->
          if not (cost /. d <= ceil) then
            fail t (Printf.sprintf "%s: stretch %.3f over %.3f" name (cost /. d) ceil))
        r.Eval.samples;
      let sources =
        List.length (List.sort_uniq Int.compare (Array.to_list (Array.map fst ps)))
      in
      if r.Eval.work.Eval.settled > n * sources * (levels + 3) then
        fail t (name ^ ": settled nodes over the n*sources*(levels+3) receipt");
      Some (r, dt)
  in
  (* Single requests, every round, for four of the probe set's sources
     in turn, so the batches keep most of the measured seconds: each
     source's router ([Eval.scheme.prepare] over the source's
     shortest-path row, which the harness computes once, untimed)
     answers its destinations one call at a time, in order; the first
     call also pays the router's preparation, and later calls reuse what
     earlier ones computed lazily (home rows, ball searches), as a node
     serving many requests would. *)
  let rows =
    Prof.span "metric.dijkstra" (fun () ->
        Array.init (Array.length probe / c.size.plaw_per_source) (fun g0 ->
            Cr_metric.Dijkstra.run g (fst probe.(g0 * c.size.plaw_per_source))))
  in
  let nrows = Array.length rows in
  let probe_step = Int.min nrows 4 in
  let route_probe round =
    for j = 0 to probe_step - 1 do
      let g0 = ((round * probe_step) + j) mod nrows in
      let base = g0 * c.size.plaw_per_source in
      let src = fst probe.(base) in
      let res = rows.(g0) in
      List.iter
        (fun (name, (scheme : Eval.scheme)) ->
          let r = List.assoc name route_reps in
          let lat = Array.make c.size.plaw_per_source Float.nan in
          let outs = Array.make c.size.plaw_per_source { Scheme.cost = 0.0; hops = 0 } in
          attempt t c.size.plaw_per_source;
          match
            guarded t (name ^ " route") (fun () ->
                Prof.span ("scale.route." ^ name) (fun () ->
                    let t0 = Prof.now () in
                    let router = scheme.Eval.prepare (Eval.fresh_work ()) ~src ~res in
                    let prep = Prof.now () -. t0 in
                    for i = 0 to c.size.plaw_per_source - 1 do
                      let dst = snd probe.(base + i) in
                      let t0 = Prof.now () in
                      outs.(i) <- router dst;
                      lat.(i) <- Prof.now () -. t0
                    done;
                    lat.(0) <- lat.(0) +. prep))
          with
          | None -> ()
          | Some () ->
            let ceil = ceiling name +. 1e-9 in
            Array.iteri
              (fun i x ->
                let dst = snd probe.(base + i) in
                let s = outs.(i).Scheme.cost /. res.Cr_metric.Dijkstra.dist.(dst) in
                if not (s <= ceil) then
                  fail t (Printf.sprintf "%s: routed stretch %.3f over %.3f" name s ceil);
                record r (base + i) x)
              lat)
        st.schemes
    done
  in
  let deadline = Prof.now () +. c.seconds in
  let round = ref 0 in
  Prof.span "phase.serve" (fun () ->
      while !round < nchunks || Prof.now () < deadline do
        let k = !round mod nchunks in
        let chunk = chunks.(k) in
        let secs = ref 0.0 and ok = ref true in
        List.iter
          (fun (name, scheme) ->
            match measure name scheme chunk with
            | None -> ok := false
            | Some (r, dt) ->
              secs := !secs +. dt;
              if !round < nchunks then (List.assoc name first).(k) <- Some r)
          st.schemes;
        if !ok then record round_reps k !secs;
        route_probe !round;
        incr round
      done);
  let results name =
    Array.to_list (List.assoc name first) |> List.filter_map Fun.id
  in
  let all_samples name =
    Array.concat (List.map (fun r -> r.Eval.samples) (results name))
  in
  let work name f = List.fold_left (fun a r -> a + f r.Eval.work) 0 (results name) in
  let total_hops, total_routes =
    List.fold_left
      (fun (h, r) (name, _) ->
        let s = all_samples name in
        (h +. fsum (fun (_, _, hops) -> float_of_int hops) s, r + Array.length s))
      (0.0, 0) st.schemes
  in
  let p50, p99 =
    quantiles
      (Array.map
         (fun x -> x *. 1e6)
         (finite (Array.concat (List.map (fun (_, r) -> medians r) route_reps))))
  in
  let lm_build = Prof.med_s "scale.landmark.build" in
  let lm_settled = Landmark_scale.build_settled st.lm in
  let scheme_layer (name, (scheme : Eval.scheme)) =
    let p = "scale.eval." ^ name in
    let stretches = Array.map (fun (d, cost, _) -> cost /. d) (all_samples name) in
    [ (p ^ ".s", Prof.med_s p);
      (p ^ ".settled", float_of_int (work name (fun w -> w.Eval.settled)));
      (p ^ ".sssp", float_of_int (work name (fun w -> w.Eval.sssp)));
      (p ^ ".bounded_runs", float_of_int (work name (fun w -> w.Eval.bounded_runs)));
      ("scale." ^ name ^ ".stretch_p99", Prof.quantile 0.99 stretches);
      ("scale." ^ name ^ ".bits_max",
       float_of_int (Option.get scheme.Eval.storage).Eval.bits_max) ]
  in
  { attempted = t.attempted;
    failed = t.failed;
    notes = List.rev t.notes;
    e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s",
         median_rate
           ~work:(float_of_int (List.length st.schemes * npairs))
           (medians round_reps));
        ("op_us_p50", p50);
        ("op_us_p99", p99);
        ("msgs_per_op", total_hops /. float_of_int (Int.max 1 total_routes)) ];
    layer =
      [ ("scale.oracle.create_s", Prof.med_s "scale.oracle.create");
        ("scale.landmark.build_s", lm_build);
        ("scale.landmark.settled", float_of_int lm_settled);
        ("scale.landmark.ns_per_settled", lm_build *. 1e9 /. float_of_int (Int.max 1 lm_settled));
        ("scale.zoom.build_s", Prof.med_s "scale.zoom.build");
        ("scale.zoom.settled", float_of_int (Nets.settled_work (Zoom_scale.nets st.zoom)));
        ("scale.zoom.storage_s", Prof.med_s "scale.zoom.storage");
        ("scale.zoom.storage_settled", float_of_int st.sweep_settled);
        ("par.domains", float_of_int (Pool.domains pool)) ]
      @ List.concat_map scheme_layer st.schemes;
    info = graph_info graph (Array.length pairs) }

(* {1 construct-dist} *)

type proto_run = {
  name : string;
  messages : int;
  summary : Cost.summary;
}

let construct_dist c =
  let t = tally () in
  let n = c.size.dist_n in
  let graph =
    Prof.span "graphgen.knn" (fun () ->
        Cr_graphgen.Geometric.knn ~n ~k:3 ~seed:geo_seed)
  in
  (* Set-up computes what the suite starts from and is checked against:
     the metric, and the centralized hierarchy whose nets
     Dist_hierarchy must reproduce and whose level supplies the
     netting protocol's members. *)
  let build () =
    (* a 128-node matrix is milliseconds of work: on the pool this would
       time domain start-up and scheduling rather than the work *)
    let metric =
      Prof.span "metric.of_graph" (fun () -> Metric.of_graph ~pool:Pool.sequential graph)
    in
    let h = Prof.span "nets.hierarchy" (fun () -> Hierarchy.build metric) in
    (metric, h)
  in
  let (metric, h), setup_s = setups c build in
  let g = Metric.graph metric in
  let top = Hierarchy.top_level h in
  let level = Int.max 0 (top - 2) in
  (* one protocol through a costed local runner; the runner's own
     delivery count must equal the Cost ledger (E19's drift check) *)
  let run name f =
    attempt t 1;
    let cost = Cost.create () in
    let via = Network.local ~jitter:(seed_of c jitter_seed, jitter) ~cost () in
    match guarded t ("proto " ^ name) (fun () -> Prof.call ("proto." ^ name) (fun () -> f via)) with
    | None -> None
    | Some (messages, _, _) ->
      let summary = Cost.summary cost in
      if summary.Cost.total_messages <> messages then
        fail t
          (Printf.sprintf "%s: network delivered %d messages, ledger %d" name
             messages summary.Cost.total_messages);
      Some { name; messages; summary }
  in
  let suite () =
    let spt =
      run "spt" (fun via ->
          (Cr_proto.Dist_spt.run ~via g ~root:0).Cr_proto.Dist_spt.stats.Network.messages)
    in
    let election =
      run "election" (fun via ->
          let r = Cr_proto.Net_election.run ~via g ~r:election_radius in
          r.Cr_proto.Net_election.discovery.Network.messages
          + r.Cr_proto.Net_election.election.Network.messages)
    in
    let hierarchy =
      run "hierarchy" (fun via ->
          let r = Cr_proto.Dist_hierarchy.build ~via metric in
          let nets = r.Cr_proto.Dist_hierarchy.nets in
          if
            Array.length nets <> top + 1
            || not
                 (List.for_all
                    (fun i -> nets.(i) = Hierarchy.net h i)
                    (List.init (top + 1) Fun.id))
          then fail t "hierarchy: Dist_hierarchy nets differ from Hierarchy.build";
          r.Cr_proto.Dist_hierarchy.total_messages)
    in
    let netting =
      run "netting" (fun via ->
          let r =
            Cr_proto.Dist_netting.parents_for_level ~via metric
              ~members:(Hierarchy.net h level) ~upper:(Hierarchy.net h (level + 1))
              ~radius:(Float.pow 2.0 (float_of_int (level + 1)))
          in
          r.Cr_proto.Dist_netting.stats.Network.messages)
    in
    let distances = ref None in
    let radii =
      run "radii" (fun via ->
          let r = Cr_proto.Dist_radii.run ~via g in
          distances := Some r.Cr_proto.Dist_radii.distances;
          r.Cr_proto.Dist_radii.stats.Network.messages)
    in
    let packing =
      match !distances with
      | None ->
        attempt t 1;
        fail t "packing: skipped, radii failed";
        None
      | Some distances ->
        run "packing" (fun via ->
            let r = Cr_proto.Dist_packing.run ~via g ~distances ~j:c.size.packing_j in
            r.Cr_proto.Dist_packing.discovery.Network.messages
            + r.Cr_proto.Dist_packing.election.Network.messages)
    in
    List.filter_map Fun.id [ spt; election; hierarchy; netting; radii; packing ]
  in
  (* The suite is one request with a fixed amount of work, repeated for
     the measured seconds; its time takes every protocol at its median
     repetition, so the latency percentiles coincide. *)
  let first = ref [] and suites = ref 0 in
  let deadline = Prof.now () +. c.seconds in
  Prof.span "phase.serve" (fun () ->
      while !suites < 2 || Prof.now () < deadline do
        let runs = suite () in
        if !first = [] then first := runs;
        incr suites
      done);
  let suite_s = List.fold_left (fun a r -> a +. Prof.med_s ("proto." ^ r.name)) 0.0 !first in
  let messages = List.fold_left (fun a r -> a + r.messages) 0 !first in
  { attempted = t.attempted;
    failed = t.failed;
    notes = List.rev t.notes;
    e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s", 1.0 /. suite_s);
        ("op_us_p50", suite_s *. 1e6);
        ("op_us_p99", suite_s *. 1e6);
        ("msgs_per_op", float_of_int messages) ];
    layer =
      [ ("metric.of_graph.s", Prof.med_s "metric.of_graph");
        ("metric.of_graph.alloc_mw", Prof.med_words "metric.of_graph" /. 1e6);
        ("nets.build.s", Prof.med_s "nets.hierarchy");
        ("nets.levels", float_of_int (top + 1));
        ("proto.ns_per_message", suite_s *. 1e9 /. float_of_int (Int.max 1 messages)) ]
      @ List.concat_map
          (fun r ->
            let p = "proto." ^ r.name in
            [ (p ^ ".s", Prof.med_s p);
              (p ^ ".messages", float_of_int r.messages);
              (p ^ ".bits", float_of_int r.summary.Cost.total_bits);
              (p ^ ".rounds", float_of_int r.summary.Cost.total_rounds);
              (p ^ ".max_edge_messages", float_of_int r.summary.Cost.max_edge_messages) ])
          !first;
    info = graph_info g 0 }

let all =
  [ ("serve-ni", serve_ni); ("scale-plaw", scale_plaw); ("construct-dist", construct_dist) ]
