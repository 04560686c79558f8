module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Table_codec = Cr_codec.Table_codec
module Pool = Cr_par.Pool

type mode =
  | All_levels
  | Selected

type t = {
  n : int;
  level_count : int;  (* top level + 1 *)
  eps_eff : float;
  lvl_off : int array;  (* n + 1: node -> level-slot range *)
  lvl_level : int array;  (* per slot: the ring level index *)
  ent_off : int array;  (* slots + 1: slot -> entry range *)
  ent_level : int array;
  ent_member : int array;
  ent_range : int array;  (* lo lsl 32 lor hi *)
  ent_hop : int array;
  ent_dist : float array;  (* d(node, member) *)
  piece_off : int array;  (* n + 1: node -> piece range *)
  pieces : int array;  (* start lsl 32 lor entry, increasing start *)
  bits : int array;  (* per-node exact wire size *)
}

let effective_epsilon t = t.eps_eff

let compute_selected m ~eps_eff ~top u =
  (* R(u) = { i : exists j, (eps/6) r_u(j) <= 2^i <= r_u(j) }. The paper
     assumes n is a power of two; for general n the top ball scale is
     clamped to size n so that the coarsest radii still select levels. *)
  let n = Metric.n m in
  let log_n = Bits.ceil_log2 n in
  let result = ref [] in
  for i = top downto 0 do
    let two_i = Float.pow 2.0 (float_of_int i) in
    let hit = ref false in
    for j = 0 to log_n do
      let size = min (1 lsl j) n in
      let r = Metric.radius_of_size m u size in
      if (eps_eff /. 6.0) *. r <= two_i && two_i <= r then hit := true
    done;
    if !hit then result := i :: !result
  done;
  !result

let low32 = 0xFFFF_FFFF

(* Labels, range ends and piece starts must leave the top bits of a
   packed word clear, so packed words order as their high halves do. *)
let label_limit = 1 lsl 30

let pack hi_half lo_half = (hi_half lsl 32) lor lo_half

(* Sorts [order.(0 .. len - 1)] by [lo] in place: a level holds a few
   dozen entries at most. *)
let sort_by_lo order len (lo : int array) =
  for i = 1 to len - 1 do
    let e = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && lo.(order.(!j)) > lo.(e) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- e
  done

(* Merges one level's ranges, given by increasing lo in [order.(0 .. len
   - 1)], into the intervals that earlier levels cover: [nc] of them,
   each a packed (start, entry) word in [cov] with its end in [cov_end],
   by increasing start. The covered intervals are kept as they are; the
   level's ranges fill only the gaps between them. Writes the result to
   [out]/[out_end] and returns its length. *)
let merge_level ~order ~len ~(lo : int array) ~(hi : int array) ~cov ~cov_end
    ~nc ~out ~out_end =
  let m = ref 0 and p = ref 0 in
  for k = 0 to len - 1 do
    let e = order.(k) in
    let pos = ref lo.(e) in
    while !pos <= hi.(e) do
      while !p < nc && cov_end.(!p) < !pos do
        out.(!m) <- cov.(!p);
        out_end.(!m) <- cov_end.(!p);
        incr m;
        incr p
      done;
      if !p < nc && cov.(!p) lsr 32 <= !pos then pos := cov_end.(!p) + 1
      else begin
        let stop =
          if !p < nc then Int.min hi.(e) ((cov.(!p) lsr 32) - 1) else hi.(e)
        in
        out.(!m) <- pack !pos e;
        out_end.(!m) <- stop;
        incr m;
        pos := stop + 1
      end
    done
  done;
  let rest = nc - !p in
  Array.blit cov !p out !m rest;
  Array.blit cov_end !p out_end !m rest;
  !m + rest

(* A node's piece index over its entries, given in stored order as
   [lo]/[hi] with level slot [s] owning entries [soff.(s)] to
   [soff.(s + 1) - 1]: the elementary intervals of the ranges, each with
   its minimal-slot covering entry, as packed (start, local entry) words
   in increasing start order. The slots are merged one at a time in
   stored order, so lower levels win and higher ones fill only the gaps.
   A node's E entries make at most 2E - 1 intervals; each slot costs one
   small sort and one linear merge. The ranges of one level are disjoint
   (they partition the labels; see [Netting_tree.range]). *)
let piece_index ~soff ~lo ~hi =
  let cap = (2 * Array.length lo) + 1 in
  let cov = ref (Array.make cap 0) and cov_end = ref (Array.make cap 0) in
  let out = ref (Array.make cap 0) and out_end = ref (Array.make cap 0) in
  let nc = ref 0 in
  let order = Array.make (Array.length lo) 0 in
  for s = 0 to Array.length soff - 2 do
    let len = soff.(s + 1) - soff.(s) in
    for k = 0 to len - 1 do
      order.(k) <- soff.(s) + k
    done;
    sort_by_lo order len lo;
    let m =
      merge_level ~order ~len ~lo ~hi ~cov:!cov ~cov_end:!cov_end ~nc:!nc
        ~out:!out ~out_end:!out_end
    in
    let merged = !out and merged_end = !out_end in
    out := !cov;
    out_end := !cov_end;
    cov := merged;
    cov_end := merged_end;
    nc := m
  done;
  Array.sub !cov 0 !nc

(* One node's part of the store: per-slot levels and entry offsets,
   per-entry fields in stored order, and the piece index over local
   entry indices. *)
type slice = {
  slot_level : int array;
  soff : int array;
  member : int array;
  range : int array;
  hop : int array;
  dist : float array;
  node_pieces : int array;
}

(* Node [u]'s rings: at each level of [levels], the points of Y_i within
   2^i / eps_eff of [u], in net order, each with its range, its next hop
   ([u] itself for [u]) and its distance. *)
let slice m nt ~nets ~eps_eff ~levels u =
  let rings =
    Array.map
      (fun i ->
        let radius = Float.pow 2.0 (float_of_int i) /. eps_eff in
        Array.of_list
          (List.filter (fun x -> Metric.dist m u x <= radius) nets.(i)))
      levels
  in
  let soff = Array.make (Array.length levels + 1) 0 in
  Array.iteri (fun s ring -> soff.(s + 1) <- soff.(s) + Array.length ring) rings;
  let member = Array.concat (Array.to_list rings) in
  let lo = Array.make (Array.length member) 0 in
  let hi = Array.make (Array.length member) 0 in
  Array.iteri
    (fun s ring ->
      Array.iteri
        (fun j x ->
          let r = Netting_tree.range nt ~level:levels.(s) x in
          (* a net point's range has lo <= hi *)
          if r.Netting_tree.lo < 0 || r.Netting_tree.hi >= label_limit then
            invalid_arg
              (Printf.sprintf
                 "Rings.build: node %d has a range outside [0, 2^30)" u);
          lo.(soff.(s) + j) <- r.Netting_tree.lo;
          hi.(soff.(s) + j) <- r.Netting_tree.hi)
        ring)
    rings;
  let first = Metric.first_hops m ~src:u in
  { slot_level = levels; soff; member;
    range = Array.mapi (fun k l -> pack l hi.(k)) lo;
    hop = Array.map (fun x -> if x = u then u else first.(x)) member;
    dist = Array.map (fun x -> Metric.dist m u x) member;
    node_pieces = piece_index ~soff ~lo ~hi }

let build ?(pool = Pool.default ()) nt ~epsilon ~mode =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Rings.build: epsilon must be in (0, 1)";
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let n = Metric.n m in
  if n > label_limit then invalid_arg "Rings.build: more than 2^30 nodes";
  let top = Hierarchy.top_level h in
  let eps_eff = Float.min epsilon (1.0 /. 6.0) in
  let nets = Array.init (top + 1) (Hierarchy.net h) in
  (* Nodes are independent: each builds its slice on the pool, and the
     slices are concatenated in node order, so the store is identical
     whatever the pool size. *)
  let slices =
    Pool.parallel_init pool n (fun u ->
        let levels =
          match mode with
          | All_levels -> Array.init (top + 1) Fun.id
          | Selected -> Array.of_list (compute_selected m ~eps_eff ~top u)
        in
        slice m nt ~nets ~eps_eff ~levels u)
  in
  let sum f = Array.fold_left (fun acc sl -> acc + f sl) 0 slices in
  let total_slots = sum (fun sl -> Array.length sl.slot_level) in
  let total_entries = sum (fun sl -> Array.length sl.member) in
  let total_pieces = sum (fun sl -> Array.length sl.node_pieces) in
  if total_entries > low32 then
    invalid_arg "Rings.build: more than 2^32 ring entries";
  let lvl_off = Array.make (n + 1) 0 in
  let lvl_level = Array.make total_slots 0 in
  let ent_off = Array.make (total_slots + 1) 0 in
  let ent_level = Array.make total_entries 0 in
  let ent_member = Array.make total_entries 0 in
  let ent_range = Array.make total_entries 0 in
  let ent_hop = Array.make total_entries 0 in
  let ent_dist = Array.make total_entries 0.0 in
  let piece_off = Array.make (n + 1) 0 in
  let pieces = Array.make total_pieces 0 in
  let bits = Array.make n 0 in
  let si = ref 0 and ei = ref 0 in
  Array.iteri
    (fun v sl ->
      let slots = Array.length sl.slot_level in
      let count = Array.length sl.member in
      let base = !ei in
      bits.(v) <-
        Table_codec.rings_bits_of_counts ~n ~level_count:(top + 1)
          ~levels:slots ~entries:count;
      lvl_off.(v) <- !si;
      Array.blit sl.slot_level 0 lvl_level !si slots;
      for s = 0 to slots - 1 do
        ent_off.(!si + s) <- base + sl.soff.(s);
        Array.fill ent_level (base + sl.soff.(s))
          (sl.soff.(s + 1) - sl.soff.(s))
          sl.slot_level.(s)
      done;
      Array.blit sl.member 0 ent_member base count;
      Array.blit sl.range 0 ent_range base count;
      Array.blit sl.hop 0 ent_hop base count;
      Array.blit sl.dist 0 ent_dist base count;
      (* local entry indices become store indices: the low half of each
         packed piece stays below 2^32 *)
      let po = piece_off.(v) in
      Array.iteri (fun i p -> pieces.(po + i) <- p + base) sl.node_pieces;
      piece_off.(v + 1) <- po + Array.length sl.node_pieces;
      si := !si + slots;
      ei := base + count)
    slices;
  lvl_off.(n) <- !si;
  ent_off.(!si) <- !ei;
  { n; level_count = top + 1; eps_eff; lvl_off; lvl_level; ent_off;
    ent_level; ent_member; ent_range; ent_hop; ent_dist; piece_off; pieces;
    bits }

(* The last index in [lo, hi] whose packed piece is <= [key], or lo - 1
   when there is none. *)
let rec last_at_most (pieces : int array) key lo hi =
  if lo > hi then hi
  else
    let mid = (lo + hi) lsr 1 in
    if pieces.(mid) <= key then last_at_most pieces key (mid + 1) hi
    else last_at_most pieces key lo (mid - 1)

let cover t ~at ~label =
  if label < 0 || label >= label_limit then -1
  else
    let first = t.piece_off.(at) in
    let i =
      last_at_most t.pieces (pack label low32) first (t.piece_off.(at + 1) - 1)
    in
    if i < first then -1
    else
      let e = t.pieces.(i) land low32 in
      if label <= t.ent_range.(e) land low32 then e else -1

let next_hop t ~at ~label =
  let e = cover t ~at ~label in
  if e < 0 then -1 else t.ent_hop.(e)

let entry_level t e = t.ent_level.(e)
let entry_member t e = t.ent_member.(e)
let entry_hop t e = t.ent_hop.(e)
let entry_dist t e = t.ent_dist.(e)

let selected_levels t u =
  Array.to_list
    (Array.sub t.lvl_level t.lvl_off.(u) (t.lvl_off.(u + 1) - t.lvl_off.(u)))

let ring t u ~level =
  if level < 0 || level >= t.level_count then
    invalid_arg "Rings: level out of range";
  let rec slot s =
    if s = t.lvl_off.(u + 1) then
      invalid_arg "Rings.ring: level not selected at this node"
    else if t.lvl_level.(s) = level then s
    else slot (s + 1)
  in
  let s = slot t.lvl_off.(u) in
  Array.to_list
    (Array.sub t.ent_member t.ent_off.(s) (t.ent_off.(s + 1) - t.ent_off.(s)))

let levels_of t u =
  let ls = t.lvl_off.(u) in
  List.init
    (t.lvl_off.(u + 1) - ls)
    (fun k ->
      let s = ls + k in
      let es = t.ent_off.(s) in
      { Table_codec.level = t.lvl_level.(s);
        entries =
          List.init
            (t.ent_off.(s + 1) - es)
            (fun j ->
              let e = es + j in
              { Table_codec.member = t.ent_member.(e);
                range_lo = t.ent_range.(e) lsr 32;
                range_hi = t.ent_range.(e) land low32;
                next_hop = t.ent_hop.(e) }) })

let table_bits t u =
  let level_bits = Bits.ceil_log2 t.level_count in
  let per_member = Bits.range_bits t.n + Bits.id_bits t.n + Bits.id_bits t.n in
  let slots = t.lvl_off.(u + 1) - t.lvl_off.(u) in
  let entries = t.ent_off.(t.lvl_off.(u + 1)) - t.ent_off.(t.lvl_off.(u)) in
  (slots * level_bits) + (per_member * entries)

let wire_bits t u = t.bits.(u)

let words t =
  Array.length t.lvl_off + Array.length t.lvl_level + Array.length t.ent_off
  + Array.length t.ent_level + Array.length t.ent_member
  + Array.length t.ent_range + Array.length t.ent_hop
  + Array.length t.ent_dist + Array.length t.piece_off
  + Array.length t.pieces + Array.length t.bits
