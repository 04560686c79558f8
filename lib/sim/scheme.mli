(** First-class routing-scheme values: the uniform interface between the
    concrete schemes (cr_core, cr_baselines) and the measurement harness.

    A labeled scheme exposes its label assignment and routes given the
    destination's *label*; a name-independent scheme routes given the
    destination's arbitrary original *name* (a permutation of [0, n)). *)

type outcome = {
  cost : float;  (** distance actually traveled *)
  hops : int;  (** graph edges traversed (plus charged virtual edges) *)
}

type labeled = {
  l_name : string;
  label : int -> int;  (** node -> routing label *)
  route_to_label : src:int -> dest_label:int -> outcome;
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
    the schemes' [degraded_scheme] constructors, which capture a
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

(** [route_labeled s ~src ~dst] looks up [dst]'s label and routes to it. *)
val route_labeled : labeled -> src:int -> dst:int -> outcome

(** [max_table_bits s n] / [avg_table_bits s n] summarize per-node storage
    over nodes [0..n-1] for a labeled scheme. *)
val max_table_bits : labeled -> int -> int

val avg_table_bits : labeled -> int -> float

(** Same summaries for a name-independent scheme. *)
val ni_max_table_bits : name_independent -> int -> int

val ni_avg_table_bits : name_independent -> int -> float
