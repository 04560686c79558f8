(** Measured wire encodings for protocol messages.

    The CONGEST cost model charges each message its size in bits; this
    module gives every [lib/proto] protocol a [measure : msg -> int]
    hook backed by [Cr_codec.Bitbuf] — the size is the length of an
    actual bit-packed encoding, not an [Obj]-based guess. Protocols
    write their message through the [push_*] helpers and {!measure}
    returns the resulting bit count.

    Conventions: node identifiers cost [ceil (log2 n)] bits; optional
    identifiers (a parent that may be [-1]) shift by one and draw from a
    universe of [n + 1]; distances travel as full IEEE doubles (64
    bits); variant tags cost [ceil (log2 cases)] bits. Every field costs
    at least one bit: even a unary alphabet costs a bit on a real wire. *)

(** [measure f] runs [f] on a fresh bitbuf writer and returns the bits
    written — the canonical message-size hook. *)
val measure : (Cr_codec.Bitbuf.writer -> unit) -> int

(** [push_node w ~n v] appends node id [v] in [ceil (log2 n)] bits. *)
val push_node : Cr_codec.Bitbuf.writer -> n:int -> int -> unit

(** [push_opt_node w ~n v] appends [v] in [ceil (log2 (n + 1))] bits,
    where [v] may be [-1] (encoded as 0, real ids shifted by one). *)
val push_opt_node : Cr_codec.Bitbuf.writer -> n:int -> int -> unit

(** [push_float w x] appends [x] as a 64-bit IEEE double. *)
val push_float : Cr_codec.Bitbuf.writer -> float -> unit

val push_bool : Cr_codec.Bitbuf.writer -> bool -> unit

(** [push_tag w ~cases v] appends variant tag [v] (in [0, cases)). *)
val push_tag : Cr_codec.Bitbuf.writer -> cases:int -> int -> unit

(** [push_seq w v] appends a transport sequence number as 32 bits
    (masked to the low 32 — sequence spaces wrap on a real wire). *)
val push_seq : Cr_codec.Bitbuf.writer -> int -> unit
