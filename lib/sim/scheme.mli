(** First-class routing-scheme values: the uniform interface between the
    concrete schemes (cr_core, cr_baselines) and the measurement harness.

    A labeled scheme is its label assignment and its walk: given the
    destination's *label*, the walk moves a packet there. Every other view
    is derived from that walk here, once: a route on a fresh walker
    ({!route_labeled}) and the naive name-independent view of a labeled
    baseline ({!with_name_directory}). A name-independent scheme routes
    given the destination's arbitrary original *name* (a permutation of
    [0, n)). *)

type outcome = {
  cost : float;  (** distance actually traveled *)
  hops : int;  (** graph edges traversed (plus charged virtual edges) *)
}

type labeled = {
  l_name : string;
  label : int -> int;  (** node -> routing label *)
  walk : Walker.t -> dest_label:int -> unit;
      (** advance a walker from its position to the labeled node, paying
          real edge costs *)
  l_table_bits : int -> int;  (** per-node routing information, in bits *)
  l_label_bits : int;
  l_header_bits : int;  (** maximum packet-header size, in bits *)
}

type name_independent = {
  ni_name : string;
  route_to_name : src:int -> dest_name:int -> outcome;
  ni_table_bits : int -> int;
  ni_header_bits : int;
}

(** How a route under a failure set ended: [Delivered] on the fault-free
    fast path, [Rerouted] if it reached the destination after at least one
    failover, [Undeliverable] if the search was exhausted (hop budget, or
    no surviving level — e.g. the destination itself is failed). *)
type route_status =
  | Delivered
  | Rerouted
  | Undeliverable

type degraded_outcome = {
  d_cost : float;  (** distance traveled, including abandoned detours *)
  d_hops : int;
  d_status : route_status;
  d_reroutes : int;  (** failovers taken (0 iff [Delivered]) *)
}

(** A name-independent scheme routing over a fixed failure set — built by
    [Cr_core.Ni_scheme.degraded_scheme], which captures a
    {!Failures.t}. *)
type degraded = {
  dg_name : string;
  dg_route : src:int -> dest_name:int -> degraded_outcome;
}

(** [table_counters ctx name bits n] emits [name.table_bits.max] and
    [name.table_bits.avg] counters over nodes [0..n-1]; a no-op (skipping
    the O(n) sweep) when [ctx] is disabled. Used by scheme constructors. *)
val table_counters :
  Cr_obs.Trace.context -> string -> (int -> int) -> int -> unit

(** [route_labeled m s ~src ~dst] routes a packet from [src] to [dst] with
    the labeled scheme [s] over [m]: a fresh walker at [src] with the
    labeled budget ({!Walker.labeled_budget}) runs [s.walk] to [dst]'s
    label, and the outcome is what the walker paid. *)
val route_labeled :
  Cr_metric.Metric.t -> labeled -> src:int -> dst:int -> outcome

(** [with_name_directory m naming s] is the naive way to make a labeled
    scheme name-independent, the one the baselines of Table 1 use: every
    node also stores the whole name-to-node directory ([n · id_bits n]
    bits), so a route to a name is [s]'s route to the named node. The
    name and the header are [s]'s. *)
val with_name_directory :
  Cr_metric.Metric.t -> Workload.naming -> labeled -> name_independent

(** [max_table_bits s n] / [avg_table_bits s n] summarize per-node storage
    over nodes [0..n-1] for a labeled scheme. *)
val max_table_bits : labeled -> int -> int

val avg_table_bits : labeled -> int -> float

(** Same summaries for a name-independent scheme. *)
val ni_max_table_bits : name_independent -> int -> int

val ni_avg_table_bits : name_independent -> int -> float
