(** Greedy r-nets (Definition 2.1).

    An r-net of a metric space (V, d) is a subset Y such that every point of
    V is within distance r of Y (covering) and any two points of Y are at
    distance at least r (packing). The greedy construction scans candidates
    in increasing id order, which makes every net deterministic. *)

(** [greedy m ~r ~candidates ~seed] is an r-net of the point set
    [candidates] that contains every point of [seed]. Points of [seed] are
    assumed pairwise >= r apart (this holds in the nested hierarchy where
    the seed is the net of the next coarser level); candidates are scanned
    in increasing id order and added when at distance >= r from the net so
    far. The result is sorted by id. *)
val greedy :
  Cr_metric.Metric.t -> r:float -> candidates:int list -> seed:int list ->
  int list
