(** Rings of net points: X_i(u) = B_u(2^i / eps) ∩ Y_i, and the selected
    level set R(u) (Section 4.1), stored once for the schemes that walk
    them and the engines that serve them.

    The scale-free labeled scheme stores ring information only for levels
    i in R(u) = { i : exists j, (eps/6) r_u(j) <= 2^i <= r_u(j) } — that is
    what removes the log Delta factor from its tables; the non-scale-free
    hierarchical scheme stores every level. Both variants are built here,
    chosen by [mode].

    For every ring member x the node stores Range(x, i) (to test label
    coverage) and the next hop on the shortest path toward x.

    {b Layout.} The store is a struct-of-arrays arena. A node's level
    slots sit in increasing level order, and each slot's entries (its
    ring members, in increasing id order) sit in per-entry arrays: level,
    member, range as one word [lo lsl 32 lor hi], next hop, and d(node,
    member). Beside them each node keeps a {e piece index}: the
    elementary intervals its ranges cut the label space into, each mapped
    to the entry that covers it at the minimal level, stored as one
    sorted word per piece, [start lsl 32 lor entry]. A label no range
    covers needs no piece of its own: it lies before the first piece or
    past the end of the last piece that starts at or below it. On
    geo-512 a node's ~120 entries make ~70 pieces. Each node also keeps
    its exact wire size.

    {b Lookup.} [cover] is one binary search over the node's pieces for
    the last start [<= label]; that piece's entry covers the label iff
    the label is [<=] the entry's [hi]. No closures, no options, no
    allocation. *)

type t

type mode =
  | All_levels  (** R(u) = [0, log Delta]: the Lemma 3.1-style scheme *)
  | Selected  (** the paper's R(u): scale-free storage *)

(** [build nt ~epsilon ~mode] computes rings over the netting tree [nt]'s
    hierarchy. [epsilon] must be in (0, 1); ring radii use the scheme's
    internal effective epsilon (see [effective_epsilon]). Each node's
    levels, members, ranges, next hops (one [Metric.first_hops] row per
    node), distances and piece index are built on [pool], and the nodes
    are then concatenated in node order: the store is identical whatever
    the pool size.

    Raises [Invalid_argument] when the packing cannot hold the store:
    more than 2^30 nodes, more than 2^32 entries, or a range end outside
    0 .. 2^30 - 1 (naming the node). *)
val build :
  ?pool:Cr_par.Pool.t -> Cr_nets.Netting_tree.t -> epsilon:float -> mode:mode -> t

(** [effective_epsilon t] is min(eps, 1/6): the slack that guarantees a
    covering ring member always exists at some selected level (the paper
    absorbs this constant in its O(eps) notation; see Section 4.2 and
    DESIGN.md). Ring radii are 2^i / effective_epsilon. *)
val effective_epsilon : t -> float

(** {1 Lookups} *)

(** [cover t ~at ~label] is the index of the minimal-level ring entry at
    [at] whose range covers [label] (-1 if none). One binary search over
    [at]'s piece index; allocation-free. *)
val cover : t -> at:int -> label:int -> int

(** [next_hop t ~at ~label] is the stored next hop of the covering entry
    (-1 if no level covers): [Metric.next_hop ~src:at] toward the
    member, or [at] itself when the member is [at]. Allocation-free. *)
val next_hop : t -> at:int -> label:int -> int

(** Entry-field accessors for an index returned by [cover]. *)
val entry_level : t -> int -> int

val entry_member : t -> int -> int
val entry_hop : t -> int -> int

(** [entry_dist t e] is d(node, member) for entry [e]. *)
val entry_dist : t -> int -> float

(** {1 Node views} *)

(** [selected_levels t u] is R(u), increasing. *)
val selected_levels : t -> int -> int list

(** [ring t u ~level] is X_level(u), increasing ids. Raises
    [Invalid_argument] if [level] is not in R(u). *)
val ring : t -> int -> level:int -> int list

(** [levels_of t u] is node [u]'s table as the wire codec sees it: every
    selected level in increasing order, each with its members' ranges
    and next hops. [Table_codec.encode_rings] of it takes exactly
    [wire_bits t u] bits. *)
val levels_of : t -> int -> Cr_codec.Table_codec.ring_level list

(** {1 Accounting} *)

(** [table_bits t u] is the measured ring storage at [u]: per member one
    range, one next-hop id, and the member's id; plus one level index per
    selected level. *)
val table_bits : t -> int -> int

(** [wire_bits t u] is node [u]'s exact wire size
    ([Table_codec.rings_bits_of_counts]). *)
val wire_bits : t -> int -> int

(** [words t] is the store's size in machine words (array payloads
    only). *)
val words : t -> int
