(** Binary min-heap of node ids keyed by a caller-owned distance array,
    used by [Dijkstra] and [Bounded].

    [push h key x] stores [x] at priority [key.(x)], read at push time.
    The caller may later lower [key.(x)] and push [x] again; the older
    entry then goes stale (its stored priority is above [key.(x)]), and
    [pop] drops it. Entries pop in (priority, element) lexicographic
    order, so equal priorities break toward the least id.

    No float crosses a call into or out of this module, so neither
    operation boxes one, even where cross-module inlining is off (dune's
    dev profile compiles [-opaque]). [push] allocates only when the heap
    doubles its capacity; [pop] never allocates. *)

type t

(** [create ()] is an empty heap. *)
val create : unit -> t

(** [clear h] empties [h], keeping its capacity. *)
val clear : t -> unit

(** [push h key x] inserts [x] at priority [key.(x)]. [x] must be a
    valid index of [key] and non-negative. *)
val push : t -> float array -> int -> unit

(** [pop h key] removes and returns the least live entry's element,
    dropping every stale entry ahead of it; -1 when no live entry is
    left. An entry is live while its stored priority is [<= key.(x)]. *)
val pop : t -> float array -> int
