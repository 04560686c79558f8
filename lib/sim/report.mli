(** Machine-readable experiment reports: the schema behind the
    [BENCH_<experiment>.json] files the bench harness emits under
    [--report] and the [cr_report] CLI diffs between runs.

    A report is one experiment's worth of rows; a row is one
    (family, scheme) measurement carrying two field classes with
    different regression semantics:

    - {b metrics} — deterministic quantities (stretch, table bits,
      message counts...). Pool-size invariant and seed-reproducible, so
      [cr_report diff] compares them {e exactly} and two runs at
      different [CR_DOMAINS] must render them byte-identically.
    - {b timings} — wall-clock seconds. Host- and load-dependent, so the
      diff applies a relative threshold instead.

    Rows keep insertion order (the builders iterate families and schemes
    deterministically); metric keys within a row are sorted at insertion,
    so the JSON rendering is a pure function of the measured values. The
    encoder reuses {!Cr_obs.Sinks.json_float}, so non-finite values
    render as valid JSON tokens. *)

type value = Float of float | Int of int | Str of string

type row = {
  family : string;
  scheme : string;
  metrics : (string * value) list;  (** sorted by key *)
  timings : (string * float) list;  (** sorted by key *)
}

type t

val create : experiment:string -> t

(** [add_row t ~family ~scheme ?timings metrics] appends one row.
    Raises [Invalid_argument] on a duplicate key within [metrics] or
    [timings], or a duplicate (family, scheme, discriminator) row. Use
    [discriminator] to keep multiple measurements of one scheme apart
    (e.g. an epsilon sweep); it is appended to the stored scheme name as
    ["scheme@disc"]. *)
val add_row :
  t ->
  family:string ->
  scheme:string ->
  ?discriminator:string ->
  ?timings:(string * float) list ->
  (string * value) list ->
  unit

(** Rows in insertion order. *)
val rows : t -> row list

(** [of_summary s] is the standard stretch block of a row: [pairs],
    [stretch.max/avg/p50/p99], [cost.max], [hops.total]. *)
val of_summary : Stats.summary -> (string * value) list

(** [of_snapshot snap] flattens a {!Cr_obs.Metrics} snapshot into metric
    fields: counters and gauges keep their name; a histogram [h] becomes
    [h.count] and [h.sum]. *)
val of_snapshot : (string * Cr_obs.Metrics.entry) list -> (string * value) list

(** [of_live_window w] is the standard per-window telemetry block of a
    row: [win.index], route outcome counts, [delivery.rate], stretch /
    hop / latency quantiles, and the window's edge-utilization figures
    ([win.edge_messages], [win.util.max], [win.edges]). *)
val of_live_window : Cr_obs.Live.window_stats -> (string * value) list

(** [to_json ?timings t] is the deterministic JSON rendering;
    [~timings:false] omits every row's timings object — the
    byte-comparable deterministic projection (used by the cross-domain
    determinism tests). *)
val to_json : ?timings:bool -> t -> string

(** [manifest_json ~cr_domains ~git_rev ~host ~seeds ~experiments] is the
    run manifest ([BENCH_manifest.json]): what produced the report files
    sitting next to it. *)
val manifest_json :
  cr_domains:int ->
  git_rev:string ->
  host:string ->
  seeds:(string * int) list ->
  experiments:string list ->
  string
