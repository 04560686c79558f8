(** The stretch-1 endpoint of the space/stretch trade-off: every node keeps
    a next-hop entry for every destination (Theta(n log n) bits per node).
    The paper's schemes are measured against this as the "no compression"
    reference row of Tables 1 and 2. *)

(** [labeled m] routes optimally given a destination id (labels are the
    ids themselves). *)
val labeled : Cr_metric.Metric.t -> Cr_sim.Scheme.labeled

(** [name_independent m naming] additionally stores the full name-to-id
    permutation at every node. *)
val name_independent :
  Cr_metric.Metric.t -> Cr_sim.Workload.naming -> Cr_sim.Scheme.name_independent

(** [budget n] is the walker hop budget of a full-table route on [n]
    nodes (shortest paths never exceed n - 1 hops): 10 + 4n. *)
val budget : int -> int
