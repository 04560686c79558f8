(** Exporting networks and routes for external tooling.

    [dot_of_graph] emits Graphviz DOT (neato-friendly: no layout hints
    beyond optional positions); [csv_of_route] emits a per-hop table. Both
    are plain strings so callers decide where they go. *)

(** [dot_of_graph m ?route ()] renders the graph; if [route] (a node
    sequence, e.g. a traced route's [Cr_core.Route_trace.nodes]) is given, its nodes and edges are
    highlighted and the endpoints marked. *)
val dot_of_graph : Cr_metric.Metric.t -> ?route:int list -> unit -> string

(** [csv_of_route m route] is "step,node,edge_cost,cumulative" lines for a
    node sequence; non-adjacent consecutive nodes (teleports) get the
    metric distance as edge cost and a "teleport" flag column. *)
val csv_of_route : Cr_metric.Metric.t -> int list -> string
