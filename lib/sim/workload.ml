module Rng = Cr_graphgen.Rng

let all_pairs n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if u <> v then acc := (u, v) :: !acc
    done
  done;
  !acc

let sample_pairs ~n ~count ~seed =
  if n < 2 then invalid_arg "Workload.sample_pairs: n must be >= 2";
  let rng = Rng.create seed in
  List.init count (fun _ ->
      let u = Rng.int rng n in
      let v = Rng.int rng (n - 1) in
      let v = if v >= u then v + 1 else v in
      (u, v))

let pairs_for ~n ~seed ~budget =
  if n * (n - 1) <= budget then all_pairs n
  else sample_pairs ~n ~count:budget ~seed

module Splitmix = Cr_graphgen.Splitmix

(* Zipf(alpha) over popularity ranks: cumulative weights once, then each
   draw is an inverse-CDF binary search. Every draw is keyed by
   (seed, pair index, draw index) through the pure Splitmix key tree, so
   pair i's endpoints are a function of the seed alone — independent of
   evaluation order, pool size, and how many pairs are requested. *)
let zipf_cumulative ~n ~alpha =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cum.(r) <- !acc
  done;
  cum

(* First rank r with u < cum.(r). *)
let rank_of cum u =
  let rec go lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if u < cum.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cum - 1)

let zipf_sampler ~n ~alpha ~seed =
  if n < 1 then invalid_arg "Workload.zipf_sampler: n must be >= 1";
  if not (Float.is_finite alpha && alpha >= 0.0) then
    invalid_arg "Workload.zipf_sampler: alpha must be finite and >= 0";
  let cum = zipf_cumulative ~n ~alpha in
  let total = cum.(n - 1) in
  (* rank -> node: a seeded permutation decouples popularity from id. *)
  let node_of_rank = Rng.permutation (Rng.create seed) n in
  fun key -> node_of_rank.(rank_of cum (Splitmix.uniform key *. total))

(* Extreme alpha collapses the whole CDF mass onto rank 0 in float (total
   = cum.(0)), making every draw the same node: the old unbounded
   resampling loop then never found a distinct destination. The resample
   is now bounded, with a keyed uniform draw over the other n-1 nodes as
   the deterministic fallback; draws that find a distinct destination
   within the bound (every non-degenerate skew) are byte-identical to the
   old sequence. *)
let distinct_resample_bound = 64

let zipf_pairs ~n ~alpha ~count ~seed =
  if n < 2 then invalid_arg "Workload.zipf_pairs: n must be >= 2";
  if count < 0 then invalid_arg "Workload.zipf_pairs: count must be >= 0";
  if not (Float.is_finite alpha && alpha >= 0.0) then
    invalid_arg "Workload.zipf_pairs: alpha must be finite and >= 0";
  let draw = zipf_sampler ~n ~alpha ~seed in
  let root = Splitmix.of_int seed in
  List.init count (fun i ->
      let k = Splitmix.mix root i in
      let src = draw (Splitmix.mix k 0) in
      let rec distinct j =
        if j > distinct_resample_bound then
          (src + 1
          + Splitmix.int_below
              (Splitmix.mix k (distinct_resample_bound + 1))
              (n - 1))
          mod n
        else
          let dst = draw (Splitmix.mix k j) in
          if dst = src then distinct (j + 1) else dst
      in
      (src, distinct 1))

type naming = {
  name_of : int array;
  node_of : int array;
}

let of_name_array name_of =
  let n = Array.length name_of in
  let node_of = Array.make n (-1) in
  Array.iteri (fun v name -> node_of.(name) <- v) name_of;
  { name_of; node_of }

let random_naming ~n ~seed =
  of_name_array (Rng.permutation (Rng.create seed) n)
