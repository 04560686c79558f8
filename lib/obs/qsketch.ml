(* Log-spaced bucket counters: bucket 0 is the underflow, bucket
   [buckets - 1] the overflow, and bucket i (0 < i < buckets - 1)
   holds [bounds.(i-1), bounds.(i)) where bounds grow by a fixed
   ratio gamma. Bucketing goes through binary search over the
   precomputed bounds (never a per-add log), so placement is exact by
   construction and identical on every host. *)

let buckets = 512
let v_min = 1e-3
let gamma = 1.04
let rank_error_bound = sqrt gamma -. 1.0

(* bounds.(i) is the exclusive upper edge of bucket i + 1; computed by
   iterated multiplication so adjacent bounds differ by exactly one
   float multiply. *)
let bounds =
  let b = Array.make (buckets - 1) v_min in
  for i = 1 to buckets - 2 do
    b.(i) <- b.(i - 1) *. gamma
  done;
  b

type t = {
  counts : int array;
  mutable total : int;
  mutable q_min : float;
  mutable q_max : float;
}

let create () =
  { counts = Array.make buckets 0;
    total = 0;
    q_min = infinity;
    q_max = neg_infinity }

(* Smallest i with x < bounds.(i), i.e. the bucket of an in-range x;
   precondition: x >= bounds.(0) and x < bounds.(buckets - 2). *)
let rec search x lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    if x < bounds.(mid) then search x lo mid else search x (mid + 1) hi

let index_of x =
  if not (x >= v_min) then 0 (* underflow; catches negatives and NaN *)
  else if x >= bounds.(buckets - 2) then buckets - 1
  else search x 0 (buckets - 2)

let add t x =
  let i = index_of x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if x < t.q_min then t.q_min <- x;
  if x > t.q_max then t.q_max <- x

let count t = t.total
let max_value t = t.q_max

(* Geometric midpoint of bucket i's range: for any sample x in the
   bucket, |rep - x| <= (sqrt gamma - 1) * x. *)
let representative i = sqrt (bounds.(i - 1) *. bounds.(i))

let quantile t p =
  if t.total = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int t.total)) in
      Int.max 1 (Int.min t.total r)
    in
    let i = ref 0 and seen = ref 0 in
    while !seen + t.counts.(!i) < rank do
      seen := !seen + t.counts.(!i);
      incr i
    done;
    if !i = 0 then t.q_min
    else if !i = buckets - 1 then t.q_max
    else Float.min t.q_max (Float.max t.q_min (representative !i))
  end
