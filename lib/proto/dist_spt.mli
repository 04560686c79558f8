(** Distributed shortest-path-tree construction (asynchronous
    Bellman-Ford).

    The root announces distance 0; every node keeps its best-known distance
    and predecessor and re-announces on improvement. With positive weights
    the protocol quiesces with exact shortest-path distances — this is the
    distributed counterpart of the centralized Dijkstra pass the schemes'
    preprocessing uses to build Voronoi trees and next-hop tables, and the
    message counts reported here cost out that preprocessing in the
    asynchronous message-passing model.

    The improvement guard makes the handler idempotent, so the protocol
    converges to the same tree under any at-least-once transport — in
    particular under [Cr_fault.Reliable.runner] passed as [via]. *)

type result = {
  dist : float array;
  pred : int array;  (** -1 at the root *)
  stats : Network.stats;
}

(** [run g ~root] executes the protocol to quiescence. [via] selects the
    transport (default [Network.local ()]). Raises
    [Network.Protocol_error] (protocol ["dist_spt"]) past 1000 + 100n²
    messages. *)
val run :
  ?via:Network.runner ->
  Cr_metric.Graph.t ->
  root:int ->
  result
