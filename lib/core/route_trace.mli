(** Per-route trace capture: the machine-readable analog of the paper's
    Figures 1 and 2.

    [capture] attaches a deterministic trace context (counting clock,
    in-memory sink) to one walker, runs a scheme's walk, and returns the
    route outcome together with its phase-tagged event log. The [fig1_*] /
    [fig2_*] helpers build a scheme and capture a batch of routes — used by
    the [exp_trace] experiment, the [crdemo trace] subcommand, and the
    golden-trace tests (the event log is byte-reproducible for fixed
    seeds). *)

type t = {
  src : int;
  dst : int;
  distance : float;  (** shortest-path distance d(src, dst) *)
  cost : float;  (** cost actually traveled ([Walker.cost]) *)
  hops : int;
  events : Cr_obs.Trace.event list;
}

(** [capture ?max_hops m ~src ~dst ~walk] runs [walk] on a fresh observed
    walker positioned at [src]. [max_hops] defaults to the name-independent
    budget for [m] ([Cr_sim.Walker.ni_budget]). *)
val capture :
  ?max_hops:int -> Cr_metric.Metric.t -> src:int -> dst:int ->
  walk:(Cr_sim.Walker.t -> unit) -> t

(** [nodes ~src events] is the node sequence of a route that started at
    [src] and emitted the hop [events]: [src], then the destination of
    every [Edge] and [Jump] hop, in order ([Virtual] charges stay in
    place). The walker keeps no other record of the nodes it visits; for
    a captured route [t] this is [nodes ~src:t.src t.events]. *)
val nodes : src:int -> Cr_obs.Trace.event list -> int list

(** [phase_costs t] sums hop costs by phase, phases in first-appearance
    order. The sums cover every hop event, so they add up to
    [phase_cost_total t]. *)
val phase_costs : t -> (Cr_obs.Trace.phase * float) list

(** [phase_cost_total t] is the cost accounted for by hop events — equal to
    [t.cost] whenever the walk charged all travel through the walker. *)
val phase_cost_total : t -> float

(** [unphased_hops t] counts hop events with no phase attribution (0 for
    the instrumented schemes). *)
val unphased_hops : t -> int

(** [sample_pairs m ~count ~seed] is a deterministic routing workload. *)
val sample_pairs : Cr_metric.Metric.t -> count:int -> seed:int -> (int * int) list

(** [fig1_simple_ni nt ~naming ~pairs] builds the Theorem 1.4 scheme over
    its Lemma 3.1 underlying and captures one trace per pair
    ([epsilon] defaults to 0.5). *)
val fig1_simple_ni :
  ?epsilon:float -> Cr_nets.Netting_tree.t -> naming:Cr_sim.Workload.naming ->
  pairs:(int * int) list -> t list

(** Same for the Theorem 1.1 scale-free scheme over Theorem 1.2. *)
val fig1_scale_free_ni :
  ?epsilon:float -> Cr_nets.Netting_tree.t -> naming:Cr_sim.Workload.naming ->
  pairs:(int * int) list -> t list

(** [fig2_scale_free_labeled nt ~pairs] captures Theorem 1.2 (Algorithm 5)
    routes — the Figure 2 phases. *)
val fig2_scale_free_labeled :
  ?epsilon:float -> Cr_nets.Netting_tree.t -> pairs:(int * int) list -> t list

(** [to_jsonl routes] is one JSON line per route header
    ([{"ev":"route",...}]) followed by one line per event — deterministic,
    hence byte-comparable against a golden file. *)
val to_jsonl : t list -> string

(** [to_chrome routes] renders the batch as one Chrome trace, each route on
    its own lane. *)
val to_chrome : t list -> string
