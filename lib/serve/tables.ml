module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Rings = Cr_core.Rings
module Table_codec = Cr_codec.Table_codec
module Pool = Cr_par.Pool

(* Generic over the ring mode: All_levels (the Lemma 3.1 scheme) and
   Selected (the Theorem 1.2 scheme) produce the same wire layout, one
   encoded level per selected level. *)
let ring_levels rings v =
  let nt = Rings.netting_tree rings in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  List.map
    (fun level ->
      let entries =
        List.map
          (fun x ->
            let range = Netting_tree.range nt ~level x in
            { Table_codec.member = x;
              range_lo = range.Netting_tree.lo;
              range_hi = range.Netting_tree.hi;
              next_hop =
                (if x = v then v else Metric.next_hop m ~src:v ~dst:x) })
          (Rings.ring rings v ~level)
      in
      { Table_codec.level; entries })
    (Rings.selected_levels rings v)

type t = {
  n : int;
  lvl_off : int array;  (* n + 1: node -> level-slot range *)
  lvl_level : int array;  (* per slot: the ring level index *)
  ent_off : int array;  (* slots + 1: slot -> entry range *)
  ent_level : int array;
  ent_member : int array;
  ent_range : int array;  (* lo lsl 32 lor hi *)
  ent_hop : int array;
  ent_dist : float array;  (* d(node, member), re-derived at load *)
  piece_off : int array;  (* n + 1: node -> piece range *)
  pieces : int array;  (* start lsl 32 lor entry, increasing start *)
  bits : int array;  (* per-node exact wire size *)
}

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

(* Node [node]'s piece index over its entries, given in stored order as
   [lo]/[hi] with level slot [s] owning entries [soff.(s)] to
   [soff.(s + 1) - 1]: the elementary intervals of the ranges, each with
   its minimal-slot covering entry, as packed (start, local entry) words
   in increasing start order. The slots are merged one at a time in
   stored order, so lower levels win and higher ones fill only the gaps.
   A node's E entries make at most 2E - 1 intervals; each slot costs one
   small sort and one linear merge. *)
let piece_index ~node ~slot_level ~soff ~lo ~hi =
  let cap = (2 * Array.length lo) + 1 in
  let cov = ref (Array.make cap 0) and cov_end = ref (Array.make cap 0) in
  let out = ref (Array.make cap 0) and out_end = ref (Array.make cap 0) in
  let nc = ref 0 in
  let order = Array.make (Array.length lo) 0 in
  for s = 0 to Array.length slot_level - 1 do
    let len = soff.(s + 1) - soff.(s) in
    for k = 0 to len - 1 do
      order.(k) <- soff.(s) + k
    done;
    sort_by_lo order len lo;
    let last_hi = ref (-1) in
    for k = 0 to len - 1 do
      let e = order.(k) in
      if lo.(e) <= hi.(e) then begin
        if lo.(e) <= !last_hi then
          invalid_arg
            (Printf.sprintf
               "Tables.compile: node %d has overlapping ranges at level %d"
               node slot_level.(s));
        last_hi := hi.(e)
      end
    done;
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

(* One node's decoded levels, flattened: per-slot levels and entry
   offsets, per-entry fields in stored order, and the piece index. *)
type node_image = {
  slot_level : int array;
  soff : int array;
  member : int array;
  range : int array;
  hop : int array;
  dist : float array;
  node_pieces : int array;
  node_bits : int;
}

let node_image m ~node ~n ~level_count levels =
  let data = Table_codec.encode_rings ~n ~level_count levels in
  let back = Table_codec.decode_rings ~n ~level_count data in
  let slots = List.length back in
  let count =
    List.fold_left
      (fun acc (l : Table_codec.ring_level) -> acc + List.length l.entries)
      0 back
  in
  let slot_level = Array.make slots 0 and soff = Array.make (slots + 1) 0 in
  let lo = Array.make count 0 and hi = Array.make count 0 in
  let member = Array.make count 0 and hop = Array.make count 0 in
  let k = ref 0 in
  List.iteri
    (fun s (l : Table_codec.ring_level) ->
      slot_level.(s) <- l.level;
      soff.(s) <- !k;
      List.iter
        (fun (e : Table_codec.ring_entry) ->
          if
            e.range_lo < 0 || e.range_hi < 0 || e.range_lo >= label_limit
            || e.range_hi >= label_limit
          then
            invalid_arg
              (Printf.sprintf
                 "Tables.compile: node %d has a range outside [0, 2^30)" node);
          lo.(!k) <- e.range_lo;
          hi.(!k) <- e.range_hi;
          member.(!k) <- e.member;
          hop.(!k) <- e.next_hop;
          incr k)
        l.entries)
    back;
  soff.(slots) <- count;
  { slot_level; soff; member;
    range = Array.init count (fun k -> pack lo.(k) hi.(k));
    hop;
    dist = Array.map (fun x -> Metric.dist m node x) member;
    node_pieces = piece_index ~node ~slot_level ~soff ~lo ~hi;
    node_bits = Table_codec.rings_bits ~n ~level_count levels }

let compile ?(pool = Pool.default ()) m ~level_count ~levels_of =
  let n = Metric.n m in
  if n > label_limit then invalid_arg "Tables.compile: more than 2^30 nodes";
  (* The wire bytes are the storage format: what the arena holds is the
     *decoded* image of each node's encoding, so a node whose levels did
     not survive the round trip would be caught by the differential
     tests, not papered over. *)
  let images =
    Pool.parallel_init pool n (fun v ->
        node_image m ~node:v ~n ~level_count (levels_of v))
  in
  let sum f = Array.fold_left (fun acc im -> acc + f im) 0 images in
  let total_slots = sum (fun im -> Array.length im.slot_level) in
  let total_entries = sum (fun im -> Array.length im.member) in
  let total_pieces = sum (fun im -> Array.length im.node_pieces) in
  if total_entries > low32 then
    invalid_arg "Tables.compile: more than 2^32 ring entries";
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
    (fun v im ->
      let slots = Array.length im.slot_level in
      let count = Array.length im.member in
      let base = !ei in
      bits.(v) <- im.node_bits;
      lvl_off.(v) <- !si;
      Array.blit im.slot_level 0 lvl_level !si slots;
      for s = 0 to slots - 1 do
        ent_off.(!si + s) <- base + im.soff.(s);
        Array.fill ent_level (base + im.soff.(s))
          (im.soff.(s + 1) - im.soff.(s))
          im.slot_level.(s)
      done;
      Array.blit im.member 0 ent_member base count;
      Array.blit im.range 0 ent_range base count;
      Array.blit im.hop 0 ent_hop base count;
      Array.blit im.dist 0 ent_dist base count;
      (* local entry indices become arena indices: the low half of each
         packed piece stays below 2^32 *)
      let po = piece_off.(v) in
      Array.iteri (fun i p -> pieces.(po + i) <- p + base) im.node_pieces;
      piece_off.(v + 1) <- po + Array.length im.node_pieces;
      si := !si + slots;
      ei := base + count)
    images;
  lvl_off.(n) <- !si;
  ent_off.(!si) <- !ei;
  { n; lvl_off; lvl_level; ent_off; ent_level; ent_member; ent_range; ent_hop;
    ent_dist; piece_off; pieces; bits }

let n t = t.n
let bits t v = t.bits.(v)

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

let levels_of t v =
  let ls = t.lvl_off.(v) in
  List.init
    (t.lvl_off.(v + 1) - ls)
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

let words t =
  Array.length t.lvl_off + Array.length t.lvl_level + Array.length t.ent_off
  + Array.length t.ent_level + Array.length t.ent_member
  + Array.length t.ent_range + Array.length t.ent_hop
  + Array.length t.ent_dist + Array.length t.piece_off
  + Array.length t.pieces + Array.length t.bits
