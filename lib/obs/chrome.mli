(** Chrome [trace_event] JSON exporter (load in chrome://tracing or
    Perfetto).

    Spans and counters render on one lane against the context clock; each
    route renders on its own lane against a {e cost} timeline — every hop
    is a block whose width is its cost and whose name is its phase tag, the
    machine-readable analog of the paper's Figures 1 and 2. Protocol
    message deliveries render as instants on pid 2, one lane per node.

    One unit of route cost or protocol delay displays as 1 ms of trace
    time. *)
val to_string : Trace.event list -> string

(** [heatmap cost] renders a {!Cost.t} per-edge load table as Chrome
    counter events: one lane per touched edge on pid 3, ranked
    hottest-first, each carrying its message and bit totals — load the
    JSON next to a {!to_string} timeline to see where congestion
    concentrates. *)
val heatmap : Cost.t -> string

(** [live_timeline live] renders a {!Live.t} accumulator as a Chrome
    counter {e time series} on pid 4: the logical clock (window index)
    is the timebase, and each retained window emits delivery-rate /
    stretch-quantile / utilization counters plus one lane per run-level
    hot edge — a per-edge utilization heatmap that evolves over the
    run instead of aggregating it away. *)
val live_timeline : Live.t -> string
