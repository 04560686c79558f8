(** The stretch-1 endpoint of the space/stretch trade-off: every node keeps
    a next-hop entry for every destination (Theta(n log n) bits per node).
    The paper's schemes are measured against this as the "no compression"
    reference row of Tables 1 and 2 (its name-independent row is
    [Cr_sim.Scheme.with_name_directory] over it). *)

(** [labeled m] routes optimally given a destination id (labels are the
    ids themselves): its walk follows the shortest path. *)
val labeled : Cr_metric.Metric.t -> Cr_sim.Scheme.labeled
