(** Deterministic pseudo-random numbers (splitmix64).

    All randomized generators and workloads in this repository take an
    explicit [Rng.t] seeded by the caller, so every experiment is exactly
    reproducible; the global [Random] state is never touched. *)

type t

(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)
val create : int -> t

(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [permutation t n] is a uniformly random permutation of 0..n-1. *)
val permutation : t -> int -> int array
