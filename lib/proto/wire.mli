(** Wire widths of protocol messages.

    The CONGEST cost model charges each message its size in bits. Every
    [lib/proto] protocol's [measure : msg -> int] hook sums these
    widths, field by field, per constructor. A width is the length a
    [Cr_codec.Bitbuf] encoding of the field would have, and each helper
    refuses exactly the values that encoding's [Bitbuf.push] would, so a
    measure is the length of an actual bit-packed encoding, counted
    without building one: no helper allocates.

    Conventions: node identifiers cost [ceil (log2 n)] bits; optional
    identifiers (a parent that may be [-1]) shift by one and draw from a
    universe of [n + 1]; distances travel as full IEEE doubles (64
    bits); variant tags cost [ceil (log2 cases)] bits. Every field costs
    at least one bit: even a unary alphabet costs a bit on a real wire.
    A field of [b] bits holds [0, 2^b), so a value is refused when it is
    negative or does not fit (an id [>= n] when [n] is a power of two). *)

(** The id widths of one network. *)
type universe

(** [universe n] computes the id widths of an [n]-node network, once per
    run. Raises [Invalid_argument] when [n < 1]. *)
val universe : int -> universe

(** [node u v] is the width of node id [v]. Raises [Invalid_argument]
    if [v] does not fit. *)
val node : universe -> int -> int

(** [opt_node u v] is the width of optional id [v], which may be [-1].
    Raises [Invalid_argument] if [v + 1] does not fit. *)
val opt_node : universe -> int -> int

(** [float x] is the width of a 64-bit IEEE double. *)
val float : float -> int

(** [bool b] is one bit. *)
val bool : bool -> int

(** [tag ~cases v] is the width of variant tag [v] in [0, cases).
    Raises [Invalid_argument] if [cases < 1] or [v] does not fit. *)
val tag : cases:int -> int -> int

(** [seq v] is the width of a transport sequence number: its low 32
    bits (sequence spaces wrap on a real wire). *)
val seq : int -> int
