(** The TZ landmark baseline rebuilt on the oracle: same scheme, no matrix.

    Construction replays [Cr_baselines.Landmark.build] decision for
    decision — the same seeded landmark sample ([Landmark.sample] with the
    shared [landmark_count] formula), homes from one multi-source run whose
    (distance, owner-id) tie-break equals [Metric.nearest_in]'s least-id
    rule, bunch sizes from one truncated search per non-landmark node at
    its home radius — so on weight-1 fixtures the routes, table bits, and
    homes are equal to the dense baseline's, which test/test_scale.ml
    asserts. Routing through [Eval]: direct when the destination is inside
    the bunch (cost = the source row's distance, hops = predecessor-chain
    length, matching the dense walker), else via the home landmark with a
    lazily computed home row charged to the task's [Eval.work]. *)

type t

(** [build ?pool oracle ~seed] samples landmarks and precomputes homes and
    bunch sizes; bunch searches fan out over the pool in fixed chunks, so
    results and work counts are pool-size independent. *)
val build : ?pool:Cr_par.Pool.t -> Oracle.t -> seed:int -> t

(** [home t u] / [home_dist t u] are u's nearest landmark and its
    distance. *)
(* cr_lint: allow dead-export -- test hook: test_scale checks the sparse scheme against the dense one *)
val home : t -> int -> int

(* cr_lint: allow dead-export -- test hook: test_scale checks the sparse scheme against the dense one *)
val is_landmark : t -> int -> bool

(** [landmark_count t] is |W| (the dense formula: ceil(sqrt(n ln n))). *)
val landmark_count : t -> int

(** [table_bits t v] is the dense baseline's per-node storage formula
    ([Landmark.node_bits]) on this instance. *)
(* cr_lint: allow dead-export -- test hook: test_scale checks the sparse scheme against the dense one *)
val table_bits : t -> int -> int

(** [build_settled t] is the settled-node work of construction. *)
val build_settled : t -> int

(** [storage t] is the exact table-bit footprint (O(n) from the prebuilt
    arrays; never sampled). *)
val storage : t -> Eval.storage

(** [scheme ?storage t] packages the scheme for [Eval.measure]. *)
val scheme : ?storage:Eval.storage -> t -> Eval.scheme
