(* A field of width [b] holds the values [0, 2^b): exactly what
   [Cr_codec.Bitbuf.push ~bits:b] accepts, so each helper refuses the
   values that encoding would. *)

let rec width_from b count =
  if 1 lsl b >= count then b else width_from (b + 1) count

let bits_for count =
  if count < 1 then
    (invalid_arg "Wire.bits_for: empty universe"
    [@cr.alloc_ok "cold path: an empty universe raises"]);
  width_from 1 count

let fitting ~bits v what =
  if v >= 0 && v lsr bits = 0 then bits
  else
    (invalid_arg what
    [@cr.alloc_ok "cold path: a value that does not fit raises"])

type universe = {
  node_bits : int;
  opt_bits : int;  (* ids shifted by one, so that -1 encodes as 0 *)
}

let universe n = { node_bits = bits_for n; opt_bits = bits_for (n + 1) }

let[@cr.zero_alloc] node u v =
  fitting ~bits:u.node_bits v "Wire.node: id out of range"

let[@cr.zero_alloc] opt_node u v =
  fitting ~bits:u.opt_bits (v + 1) "Wire.opt_node: id out of range"

let[@cr.zero_alloc] tag ~cases v =
  fitting ~bits:(bits_for cases) v "Wire.tag: tag out of range"

(* A double travels as its two 32-bit halves, a flag as one bit and a
   sequence number as its low 32 bits: every value fits its width. *)
let[@cr.zero_alloc] float (_ : float) = 64
let[@cr.zero_alloc] bool (_ : bool) = 1
let[@cr.zero_alloc] seq (_ : int) = 32
