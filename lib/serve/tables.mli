(** Compiled ring tables: every node's wire-encoded ring state, decoded
    once at load time into a struct-of-arrays arena.

    The storage format is exactly [Cr_codec.Table_codec]'s bit layout —
    [compile] round-trips each node's levels through
    [encode_rings]/[decode_rings] so the arena provably holds nothing the
    wire bytes don't.

    {b Layout.} A node's entries sit in stored (level-slot) order in
    per-entry arrays; an entry's range is one word, [lo lsl 32 lor hi].
    Beside them each node keeps a {e piece index}: the elementary
    intervals its ranges cut the label space into, each mapped to the
    entry that covers it at the minimal level, stored as one sorted word
    per piece, [start lsl 32 lor entry]. A label no range covers needs no
    piece of its own: it lies before the first piece or past the end of
    the last piece that starts at or below it. On geo-512 a node's ~120
    entries make ~70 pieces.

    {b Lookup.} [cover] is one binary search over the node's pieces for
    the last start [<= label]; that piece's entry covers the label iff
    the label is [<=] the entry's [hi]. No closures, no options, no
    allocation. *)

type t

(** [ring_levels rings v] extracts node [v]'s ring tables (every selected
    level, with ranges and precomputed next hops) in wire order — the
    wire view of either ring mode ([All_levels] or [Selected]). The stored
    next hop toward member [x] is exactly [Metric.next_hop ~src:v ~dst:x]
    ([v] itself for [x = v]), so decisions replayed from the compiled
    tables agree hop for hop with the scheme's walk. *)
val ring_levels : Cr_core.Rings.t -> int -> Cr_codec.Table_codec.ring_level list

(** [compile ?pool m ~level_count ~levels_of] encodes, decodes, and
    flattens every node's ring levels ([levels_of v] in wire order, as
    produced by {!ring_levels}) and builds each
    node's piece index: the level slots are merged one at a time in
    stored order, the earlier slots' intervals kept and each later slot
    filling only the gaps they leave. Per-entry member distances are
    re-derived from [m] at load time (they are not part of the wire
    format; the scale-free scheme's forwarding test needs them).
    Per-node work fans out over [pool]; the arena is identical whatever
    the pool size.

    Raises [Invalid_argument] naming the node and the level when two
    ranges of one level overlap (the minimal cover would not be unique),
    naming the node when a range end falls outside 0 .. 2^30 - 1, and when
    the packing cannot hold the arena (more than 2^30 nodes or 2^32
    entries). *)
val compile :
  ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t ->
  level_count:int ->
  levels_of:(int -> Cr_codec.Table_codec.ring_level list) ->
  t

val n : t -> int

(** [bits t v] is node [v]'s exact wire size ([Table_codec.rings_bits]). *)
val bits : t -> int -> int

(** [cover t ~at ~label] is the arena index of the minimal-level ring
    entry at [at] whose range covers [label] (-1 if none) — the flat
    mirror of [Rings.minimal_cover_level], with levels taken in stored
    (increasing) order. One binary search over [at]'s piece index;
    allocation-free. *)
val cover : t -> at:int -> label:int -> int

(** [next_hop t ~at ~label] is the stored next hop of the covering entry
    (-1 if no level covers). Allocation-free. *)
val next_hop : t -> at:int -> label:int -> int

(** Entry-field accessors for an index returned by [cover]. *)
val entry_level : t -> int -> int

val entry_member : t -> int -> int
val entry_hop : t -> int -> int

(** [entry_dist t e] is d(node, member) for entry [e], precomputed at
    load. *)
val entry_dist : t -> int -> float

(** [levels_of t v] reconstructs node [v]'s decoded ring levels — the
    inverse of flattening, used by the codec idempotence test
    (re-encoding it must reproduce the original wire bytes). *)
val levels_of : t -> int -> Cr_codec.Table_codec.ring_level list

(** [words t] is the arena size in machine words (array payloads only). *)
val words : t -> int
