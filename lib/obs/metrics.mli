(** A typed metrics registry: counters, gauges, and fixed-bucket
    histograms, aggregated in memory and snapshotted deterministically.

    The registry is the aggregation half of the observability layer: where
    {!Trace} streams individual events to a sink, [Metrics] folds them
    into a small, named summary — how many hops per phase, how long each
    construction span took, how message rounds distribute — that the bench
    harness serializes into machine-readable [BENCH_*.json] reports and
    [cr_report] diffs between runs.

    Names are flat dotted strings (["route.hops.zoom"]). A name is bound
    to one instrument kind for the registry's lifetime; mixing kinds under
    one name raises [Invalid_argument] — a typed registry never silently
    coerces. {!snapshot} orders entries by name (the [Cr_metric.Tbl]
    discipline: traversals are a function of contents, never of hash
    order), so two registries fed the same updates render byte-identical
    JSON.

    Registries are not thread-safe, exactly like sinks: feed them from the
    calling domain only. In library hot paths, registry updates must be
    dominated by a [Trace.enabled] guard (enforced by the [cr_lint]
    trace-guard rule) so unobserved runs pay nothing. *)

type t

val create : unit -> t

(** {1 Instruments} *)

(** [inc t name v] adds [v] to the counter [name] (creating it at 0).
    Counters are monotone sums; [v] must be non-negative. *)
(* cr_lint: allow dead-export -- test hook: the sink's instruments, tested without a trace stream *)
val inc : t -> string -> float -> unit

(** [set t name v] sets the gauge [name] to [v] (last write wins). *)
(* cr_lint: allow dead-export -- test hook: the sink's instruments, tested without a trace stream *)
val set : t -> string -> float -> unit

(** [observe t ?buckets name v] records [v] into the histogram [name].
    The bucket upper bounds are fixed by the first [observe] of that name
    ([buckets] defaults to {!default_buckets}) and must be strictly
    increasing; later calls may omit [buckets] (a different bucket array
    for an existing histogram raises). A value lands in the first bucket
    whose bound is [>= v]; values above every bound land in the implicit
    overflow bucket. *)
(* cr_lint: allow dead-export -- test hook: the sink's instruments, tested without a trace stream *)
val observe : t -> ?buckets:float array -> string -> float -> unit

(** {1 Snapshots} *)

type entry =
  | Counter of float
  | Gauge of float
  | Histogram of {
      buckets : float array;  (** upper bounds, strictly increasing *)
      counts : int array;  (** per-bucket counts + final overflow slot *)
      count : int;  (** total observations *)
      sum : float;  (** sum of observed values *)
    }

(** [snapshot t] is every entry, sorted by name. *)
val snapshot : t -> (string * entry) list

(** [find t name] is the current entry under [name], if any. *)
val find : t -> string -> entry option

(** [to_json t] renders the snapshot as one deterministic JSON object
    keyed by metric name, using the same float encoding as the JSONL
    trace sink ({!Sinks.json_float}). *)
val to_json : t -> string

(** {1 Trace adapter} *)

(** [sink t] folds a trace event stream into the registry, so every
    existing instrumentation point feeds it for free:

    - [Counter {name; value}] sets the gauge [name] (trace counters carry
      absolute values, e.g. final table-bit totals);
    - [Hop {kind; cost; phase; _}] increments the counters ["route.hops"],
      ["route.hops." ^ phase], ["route.cost." ^ phase] (by [cost]) and
      observes [cost] into the ["route.hop_cost"] histogram;
    - [Span_open]/[Span_close] pairs (LIFO, by name) increment
      ["span." ^ name ^ ".count"] and add the duration to
      ["span." ^ name ^ ".seconds"];
    - [Message {round; _}] increments ["network.delivered"] and observes
      [round] into the ["network.round"] histogram;
    - [Mark] events are ignored (their names are free-form). *)
val sink : t -> Trace.sink
