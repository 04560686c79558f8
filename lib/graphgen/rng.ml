type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                  (Int64.of_int bound))

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (mantissa /. 9007199254740992.0 (* 2^53 *))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle t arr;
  arr
