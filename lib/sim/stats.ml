module Metric = Cr_metric.Metric

type summary = {
  count : int;
  max_stretch : float;
  avg_stretch : float;
  p50_stretch : float;
  p99_stretch : float;
  max_cost : float;
  total_hops : int;
}

let summarize samples =
  if samples = [] then invalid_arg "Stats.summarize: no samples";
  let stretches =
    List.map
      (fun (d, cost, _) ->
        if d <= 0.0 then
          invalid_arg "Stats.summarize: non-positive shortest distance";
        cost /. d)
      samples
  in
  let arr = Array.of_list stretches in
  Array.sort Float.compare arr;
  let count = Array.length arr in
  (* Standard nearest-rank percentile: rank = ceil(p * count), 1-indexed.
     The previous floor-based index aliased p99 to max on small samples. *)
  let pct p =
    let rank = int_of_float (Float.ceil (p *. float_of_int count)) - 1 in
    arr.(max 0 (min (count - 1) rank))
  in
  { count;
    max_stretch = arr.(count - 1);
    avg_stretch = Array.fold_left ( +. ) 0.0 arr /. float_of_int count;
    p50_stretch = pct 0.50;
    p99_stretch = pct 0.99;
    max_cost =
      List.fold_left (fun acc (_, c, _) -> Float.max acc c) 0.0 samples;
    total_hops = List.fold_left (fun acc (_, _, h) -> acc + h) 0 samples }

(* With a pool, pairs are routed on up to [Pool.domains pool] domains, one
   fresh walker per pair; samples come back in pair order (never completion
   order), so the summary is identical to the sequential run. Routes must
   not emit trace events when a pool of size > 1 is used — sinks live on
   the calling domain and are not thread-safe. *)
let samples_of ?pool m route pairs =
  let sample (src, dst) =
    let outcome : Scheme.outcome = route src dst in
    (Metric.dist m src dst, outcome.cost, outcome.hops)
  in
  match pool with
  | None -> List.map sample pairs
  | Some pool -> Cr_par.Pool.parallel_map_list pool sample pairs

let measure_labeled ?pool m (s : Scheme.labeled) pairs =
  summarize
    (samples_of ?pool m (fun src dst -> Scheme.route_labeled m s ~src ~dst) pairs)

let measure_name_independent ?pool m (s : Scheme.name_independent) naming pairs
    =
  let route src dst =
    s.route_to_name ~src ~dest_name:naming.Workload.name_of.(dst)
  in
  summarize (samples_of ?pool m route pairs)

type degraded_summary = {
  routes : int;
  delivered : int;
  rerouted : int;
  undeliverable : int;
  reroutes_total : int;
  arrived : summary option;
}

(* Same pooling contract as [samples_of]: samples return in pair order, so
   the summary equals the sequential run's regardless of pool size. Live
   telemetry is recorded from the merged outcome list on the calling
   domain — also in pair order — so its snapshots inherit the same
   pool-size invariance. *)
let measure_degraded ?pool ?(live = Cr_obs.Live.null) m (s : Scheme.degraded)
    naming pairs =
  let sample (src, dst) =
    let o = s.Scheme.dg_route ~src ~dest_name:naming.Workload.name_of.(dst) in
    (Metric.dist m src dst, o)
  in
  let outcomes =
    match pool with
    | None -> List.map sample pairs
    | Some pool -> Cr_par.Pool.parallel_map_list pool sample pairs
  in
  (if Cr_obs.Live.enabled live then
     List.iter2
       (fun (src, dst) (d, (o : Scheme.degraded_outcome)) ->
         Cr_obs.Live.tick live;
         Cr_obs.Live.record live ~src ~dst
           ~status:o.Scheme.d_status
           ~dist:d ~cost:o.Scheme.d_cost ~hops:o.Scheme.d_hops)
       pairs outcomes);
  let delivered = ref 0 and rerouted = ref 0 and undeliverable = ref 0 in
  let reroutes = ref 0 in
  let arrived_samples =
    List.filter_map
      (fun (d, (o : Scheme.degraded_outcome)) ->
        reroutes := !reroutes + o.Scheme.d_reroutes;
        match o.Scheme.d_status with
        | Scheme.Delivered ->
          incr delivered;
          Some (d, o.Scheme.d_cost, o.Scheme.d_hops)
        | Scheme.Rerouted ->
          incr rerouted;
          Some (d, o.Scheme.d_cost, o.Scheme.d_hops)
        | Scheme.Undeliverable ->
          incr undeliverable;
          None)
      outcomes
  in
  { routes = List.length outcomes;
    delivered = !delivered;
    rerouted = !rerouted;
    undeliverable = !undeliverable;
    reroutes_total = !reroutes;
    arrived =
      (match arrived_samples with [] -> None | l -> Some (summarize l)) }

let delivery_rate s =
  if s.routes = 0 then 1.0
  else float_of_int (s.delivered + s.rerouted) /. float_of_int s.routes

let pp_summary ppf s =
  Format.fprintf ppf
    "pairs=%d stretch[max=%.3f avg=%.3f p50=%.3f p99=%.3f] hops=%d"
    s.count s.max_stretch s.avg_stretch s.p50_stretch s.p99_stretch
    s.total_hops
