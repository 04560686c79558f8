(** Wire formats for per-node routing tables.

    These encoders demonstrate that the bit counts the measurement harness
    charges are achievable layouts, not bookkeeping fictions: each codec
    packs a node's table with ceil(log2 n)-bit ids/labels and small length
    prefixes, and the tests check (a) exact roundtrips and (b) that the
    encoded size matches the harness's accounting up to the length
    prefixes. *)

(** One ring entry of the labeled schemes: a net point visible from the
    node, its netting-tree range, and the local next hop toward it. *)
type ring_entry = {
  member : int;
  range_lo : int;
  range_hi : int;
  next_hop : int;
}

type ring_level = {
  level : int;
  entries : ring_entry list;
}

(** The one error of the ring codec: [fault] says what is wrong, and
    [bit] is the stream offset of the field at fault (of the padding or
    the first trailing byte, for those faults). *)
exception Malformed_rings of { bit : int; fault : string }

(** [encode_rings ~n ~level_count levels] packs a node's ring tables:
    a 16-bit level count, then per level its index in
    ceil(log2 (level_count + 1)) bits, a 16-bit entry count, and per
    entry the member, the range's two ends and the next hop in
    ceil(log2 n) bits each, zero-padded to a byte. Raises
    {!Malformed_rings} naming the level when a level holds more entries
    than a 16-bit count can say (or when there are that many levels), and
    [Invalid_argument] when a field does not fit its width. *)
(* cr_lint: allow dead-export -- the ring codec, which snapshots will load; round-tripped by test_codec *)
val encode_rings : n:int -> level_count:int -> ring_level list -> Bytes.t

(** [decode_rings ~n ~level_count bytes] inverts [encode_rings] on the
    encodings of valid tables, and raises {!Malformed_rings} on every
    other input. A table is valid when its members and next hops are
    below [n], every range has [lo <= hi < n], its levels increase
    strictly and stay below [level_count], and the ranges of one level
    are disjoint. Its encoding ends in zero padding, and nothing follows
    it. Every table [Cr_core.Rings] builds is valid. *)
(* cr_lint: allow dead-export -- the ring codec, which snapshots will load; round-tripped by test_codec *)
val decode_rings : n:int -> level_count:int -> Bytes.t -> ring_level list

(** [rings_bits_of_counts ~n ~level_count ~levels ~entries] is the exact
    encoded size, in bits, of a table with [levels] levels holding
    [entries] entries in all. *)
val rings_bits_of_counts :
  n:int -> level_count:int -> levels:int -> entries:int -> int
