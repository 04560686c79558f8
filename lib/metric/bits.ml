let ceil_log2 k =
  if k <= 0 then invalid_arg "Bits.ceil_log2: nonpositive";
  let rec go b pow = if pow >= k then b else go (b + 1) (2 * pow) in
  go 0 1

let id_bits n = ceil_log2 n
let range_bits n = 2 * id_bits n
let distance_bits = 32
