(** A small domain pool for the embarrassingly-parallel hot loops:
    per-source Dijkstra in [Metric.of_graph], per-node / per-ball table
    construction in the four schemes, and workload stretch evaluation.

    Design constraints (see the determinism properties in
    test/test_parallel.ml):

    - {b Determinism.} Work items are identified by their index; results are
      placed by index, never by completion order, so the output of
      [parallel_init pool n f] is element-for-element equal to
      [Array.init n f] whatever the pool size or scheduling. Chunk
      boundaries are fixed up front; only the assignment of chunks to
      domains varies between runs.
    - {b Pool size 1 is the sequential code path.} A pool of one domain
      spawns nothing and runs exactly [Array.init n f] on the calling
      domain, so a [CR_DOMAINS=1] run is the pre-parallelism code, not a
      degenerate parallel run.
    - {b Observability.} [Cr_obs] sinks are not thread-safe: all trace
      emissions must stay on the calling domain. The worker closures passed
      to this module must not emit trace events (the library's builders
      only emit spans/counters outside the parallel sections, on the
      calling domain's sink). Use {!stage} to record per-stage wall time.

    Domains are spawned per call ([Domain.spawn] costs microseconds; every
    parallel section in this code base is milliseconds or more), so a
    [t] is just a degree-of-parallelism capability — cheap to create and
    never needs teardown. *)

type t

(** [create ?domains ()] is a pool of [domains] workers (clamped to
    [1 .. 64]). When [domains] is omitted, the size comes from the
    [CR_DOMAINS] environment variable if set, else
    [Domain.recommended_domain_count ()]. Raises [Invalid_argument] on
    [domains < 1] or a malformed [CR_DOMAINS]. *)
val create : ?domains:int -> unit -> t

(** [default ()] is the process-wide pool, memoized on first use (so
    [CR_DOMAINS] is read once). Library entry points take [?pool] and
    fall back to this. *)
val default : unit -> t

(** [sequential] is the one-domain pool: [parallel_init sequential] is
    exactly [Array.init]. *)
val sequential : t

(** [domains t] is the pool size. *)
val domains : t -> int

(** [parallel_init t n f] is [Array.init n f] evaluated on up to
    [domains t] domains. [f] must be safe to call from any domain and must
    not emit trace events. If any application of [f] raises, the first
    exception (in chunk order) is re-raised on the caller after all
    domains are joined. *)
val parallel_init : t -> int -> (int -> 'a) -> 'a array

(** [parallel_map t f arr] is [Array.map f arr] with the same contract as
    {!parallel_init}: results in input order, regardless of scheduling. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_map_list t f l] is [List.map f l], order-preserving. *)
val parallel_map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [stage ctx t name f] runs [f ()] inside a [Cr_obs] span
    ["par." ^ name] and emits ["par." ^ name ^ ".domains"] and
    ["par." ^ name ^ ".seconds"] counters: a traced run's record of the
    stage's wall time and pool size. (The [trace] bench reads route hops
    only.) Events are emitted on the calling domain only; a disabled [ctx] costs
    one branch. *)
val stage : Cr_obs.Trace.context -> t -> string -> (unit -> 'a) -> 'a
