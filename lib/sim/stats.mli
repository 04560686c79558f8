(** Stretch statistics over a set of routed pairs. *)

type summary = {
  count : int;
  max_stretch : float;
  avg_stretch : float;
  p50_stretch : float;
  p99_stretch : float;
  max_cost : float;
  total_hops : int;
}

(** [summarize samples] aggregates (shortest_distance, routed_cost, hops)
    triples. Raises [Invalid_argument] on an empty list or a non-positive
    shortest distance. *)
val summarize : (float * float * int) list -> summary

(** [measure_labeled m scheme pairs] routes every pair with a labeled
    scheme and summarizes. With [pool], pairs are routed in parallel (one
    fresh walker per pair) and samples are merged in pair order — never
    completion order — so the summary is identical to the sequential run;
    routes must not emit trace events when [Cr_par.Pool.domains pool > 1]
    (sinks are not thread-safe). *)
val measure_labeled :
  ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t -> Scheme.labeled -> (int * int) list -> summary

(** [measure_name_independent m scheme naming pairs] routes every (src,
    dst-node) pair by the destination's *name* under [naming]. [pool] as
    in {!measure_labeled}. *)
val measure_name_independent :
  ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t -> Scheme.name_independent -> Workload.naming ->
  (int * int) list -> summary

(** Aggregates of a degraded-mode run over a fixed failure set. *)
type degraded_summary = {
  routes : int;
  delivered : int;  (** arrived without any failover *)
  rerouted : int;  (** arrived after at least one failover *)
  undeliverable : int;
  reroutes_total : int;  (** failovers across all routes *)
  arrived : summary option;
      (** stretch over the routes that arrived (delivered + rerouted);
          [None] when nothing arrived *)
}

(** [measure_degraded m scheme naming pairs] routes every pair through a
    degraded scheme view; [pool] as in {!measure_labeled} (samples merge
    in pair order, so the summary is pool-size-invariant).

    [live] (default disabled) streams route-level telemetry into a
    {!Cr_obs.Live} accumulator — one [tick] plus one [record] per pair,
    fed from the merged outcome list on the calling domain in pair
    order, so live snapshots are byte-identical across pool sizes.
    Per-edge utilization is out of scope here (the degraded scheme owns
    its walkers); use a [Walker] with [~live] for edge telemetry. *)
val measure_degraded :
  ?pool:Cr_par.Pool.t -> ?live:Cr_obs.Live.t ->
  Cr_metric.Metric.t -> Scheme.degraded -> Workload.naming ->
  (int * int) list -> degraded_summary

(** Fraction of routes that arrived; 1.0 on an empty run. *)
val delivery_rate : degraded_summary -> float

val pp_summary : Format.formatter -> summary -> unit
