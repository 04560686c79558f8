(** A Thorup-Zwick / Cowen-style landmark scheme: the classic stretch-3
    compact routing point for *general* graphs, reproduced here as the
    related-work row of the paper's Tables 1-2 (TZ achieve stretch 3 with
    ~n^(1/2)-bit tables; stretch below 3 provably needs ~n^(1/2) bits, which
    is exactly the barrier the doubling-dimension assumption removes).

    Structure: a random landmark set W of ~sqrt(n ln n) nodes. A landmark
    keeps a full next-hop table. A regular node u keeps next hops to every
    landmark and to its bunch B(u) = { v : d(u,v) < d(u, W) }. Routing to
    [v]: direct if v is in the bunch (or u is a landmark), otherwise via
    u's nearest landmark — at most
    d(u, l(u)) + d(l(u), v) <= 2 d(u,v) + d(u,v) = 3 d(u,v)
    because v outside the bunch certifies d(u, l(u)) <= d(u, v). *)

type t

(** [build m ~seed] samples the landmark set and precomputes every node's
    home landmark and bunch size. The concrete scheme values below and the
    route-serving compiler ([Cr_serve]) both work from this shared state,
    so a compiled engine and the walker make identical decisions. *)
val build : Cr_metric.Metric.t -> seed:int -> t

(** [home t u] is l(u), u's nearest landmark (ties to the least id). *)
val home : t -> int -> int

val is_landmark : t -> int -> bool

(** [labeled_of t] packages prebuilt state as a measurement-harness
    scheme: its walk goes directly when the destination is in the
    position's bunch (or the position is a landmark), else via its home
    landmark. Its name-independent row, like the other baselines', is
    [Cr_sim.Scheme.with_name_directory] over it. *)
val labeled_of : t -> Cr_sim.Scheme.labeled

(** [labeled m ~seed] builds the scheme with a seeded landmark sample. *)
val labeled : Cr_metric.Metric.t -> seed:int -> Cr_sim.Scheme.labeled

(** [landmark_count n] is the sample size used for an n-node network:
    ceil(sqrt(n ln n)), clamped to [1, n]. *)
val landmark_count : int -> int

(** [sample ~n ~count ~seed] draws [count] distinct landmarks out of [n]
    nodes with the [seed]ed generator and returns the membership flags —
    the draw [build] makes with [count = landmark_count n], shared with
    the sparse-tier rebuild ([Cr_scale.Landmark_scale]) so both pick the
    same set. Raises [Invalid_argument] unless 0 <= count <= n. *)
val sample : n:int -> count:int -> seed:int -> bool array

(** [node_bits ~n ~landmarks ~is_landmark ~bunch] is one node's table size
    in bits for [landmarks] sampled landmarks: a landmark keeps a full
    next-hop row (n - 1 ids); any other node keeps a next hop per landmark
    and per member of its [bunch]-node bunch, plus its home's id. *)
val node_bits : n:int -> landmarks:int -> is_landmark:bool -> bunch:int -> int
