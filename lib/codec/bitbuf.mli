(** Bit-level buffers: the paper's space bounds are stated in bits, and the
    experiment harness counts them entry by entry; this module makes those
    counts *realizable* by actually packing routing tables into bitstrings
    (see Table_codec and the roundtrip tests).

    Layout: stream bit [k] is bit [7 - k mod 8] of byte [k / 8] (the
    first bit is the most significant bit of byte 0), and each pushed
    value is written most significant bit first. So pushing [5] in 3
    bits and then [1] in 1 bit gives the byte [0xB0] once padded.
    [push] and [pull] move up to a byte per step; the layout is the one a
    bit-at-a-time writer produces, and the tests pin it with a fixed hex
    string. *)

type writer

(** [writer ()] is an empty buffer. *)
val writer : unit -> writer

(** [push w ~bits value] appends [value] in exactly [bits] bits
    (big-endian within the stream). Requires [0 <= bits <= 62] and
    [0 <= value < 2^bits]. *)
val push : writer -> bits:int -> int -> unit

(** [length_bits w] is the number of bits written so far. *)
val length_bits : writer -> int

(** [contents w] freezes the buffer (zero-padded to a byte boundary). *)
val contents : writer -> bytes

type reader

(** [reader bytes] starts reading from the beginning. *)
val reader : bytes -> reader

(** [pull r ~bits] reads the next [bits] bits as an integer.
    Raises [Invalid_argument] when past the end. *)
val pull : reader -> bits:int -> int

(** [bits_read r] is the read position. *)
val bits_read : reader -> int
