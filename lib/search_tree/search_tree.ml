module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Rnet = Cr_nets.Rnet

type leg = {
  src : int;
  dst : int;
  chained_cost : float option;
}

type search_result = {
  data : int option;
  legs : leg list;
}

(* A member's pairs once [insert] or [remove] has changed them. *)
type pairs =
  | Nil
  | Pair of int * int * pairs  (* key, data, the rest *)

(* Every per-node array is indexed by the node's slot: its position among
   the members in increasing id order. *)
type t = {
  root : int;  (* the center's slot *)
  ids : int array;  (* slot -> node id, increasing *)
  parent : int array;  (* parent slot; -1 at the root *)
  chain : float array;
      (* the Definition 4.2 chain weight of the edge to the parent; nan
         for a net edge and at the root *)
  child_off : int array;  (* slots + 1: slot -> range of [children] *)
  children : int array;  (* child slots, increasing (id order) *)
  sub_lo : int array;  (* build-time subtree key range; lo > hi if empty *)
  sub_hi : int array;
  own_lo : int array;  (* the slot's own slice of [keys]/[data] *)
  own_hi : int array;  (* exclusive *)
  keys : int array;  (* Algorithm 1's directory, sorted by key *)
  data : int array;
  touched : pairs option array;
  height : float;
  universe : int;
}

(* The index of [x] in the increasing [a.(lo .. hi)], or -1. *)
let rec find (a : int array) x lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let y = a.(mid) in
    if y = x then mid
    else if y < x then find a x (mid + 1) hi
    else find a x lo (mid - 1)

let slot_in ids v = find ids v 0 (Array.length ids - 1)

let slot_exn t who v =
  let s = slot_in t.ids v in
  if s < 0 then
    invalid_arg
      (Printf.sprintf
         "Search_tree.%s: node %d is not a member of the tree centred at %d"
         who v t.ids.(t.root));
  s

(* [keyspace] deals [0, universe) instead of the pairs' keys: the
   subtree ranges are the key space's slices, and no pair is stored. *)
let make m ~epsilon ~center ~radius ~members ~level_cap ~pairs ~universe
    ~keyspace =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Search_tree.build: epsilon must be in (0, 1)";
  let ids = Array.of_list (List.sort_uniq Int.compare members) in
  let size = Array.length ids in
  let root = slot_in ids center in
  if root < 0 then invalid_arg "Search_tree.build: center must be a member";
  let net_levels =
    let er = epsilon *. radius in
    if er < 2.0 then 0 else int_of_float (Float.log2 er)
  in
  let capped_levels =
    match level_cap with
    | None -> net_levels
    | Some cap ->
      if cap < 1 then invalid_arg "Search_tree.build: level_cap must be >= 1";
      min cap net_levels
  in
  let parent = Array.make size (-1) in
  let weight = Array.make size 0.0 in
  let chain = Array.make size Float.nan in
  let placed = Array.make size false in
  placed.(root) <- true;
  let attach v p w =
    let s = slot_in ids v in
    parent.(s) <- slot_in ids p;
    weight.(s) <- w;
    placed.(s) <- true
  in
  let unplaced vs = List.filter (fun v -> not placed.(slot_in ids v)) vs in
  let remaining =
    ref (List.filter (fun v -> v <> center) (Array.to_list ids))
  in
  let prev_level = ref [ center ] in
  (* Net levels U_1 .. U_capped_levels (Definition 3.2). *)
  let level = ref 1 in
  while !level <= capped_levels && !remaining <> [] do
    let r_i = Float.pow 2.0 (float_of_int (net_levels - !level)) in
    let u_i = Rnet.greedy m ~r:r_i ~candidates:!remaining ~seed:[] in
    List.iter
      (fun v ->
        let p = Metric.nearest_in m v !prev_level in
        attach v p (Metric.dist m v p))
      u_i;
    remaining := unplaced !remaining;
    prev_level := u_i;
    incr level
  done;
  (* Leftovers: final sweep (Definition 3.2 deviation i) or Definition 4.2
     chains when the level cap truncated the hierarchy. *)
  if !remaining <> [] then begin
    let truncated =
      match level_cap with
      | Some cap -> net_levels > cap
      | None -> false
    in
    if truncated then begin
      let n = Metric.n m in
      let w_chain = 2.0 *. epsilon *. radius /. float_of_int n in
      let sites = !prev_level in
      let tail = Array.copy ids in
      (* Visit leftovers in id order: each joins the chain of its nearest
         site, behind the previously chained node. *)
      List.iter
        (fun v ->
          let site = slot_in ids (Metric.nearest_in m v sites) in
          attach v tail.(site) w_chain;
          chain.(slot_in ids v) <- w_chain;
          tail.(site) <- v)
        (List.sort Int.compare !remaining)
    end
    else
      List.iter
        (fun v ->
          let p = Metric.nearest_in m v !prev_level in
          attach v p (Metric.dist m v p))
        !remaining
  end;
  (* The checks, and the messages, of Tree.of_parents. *)
  Array.iteri
    (fun s p ->
      if s <> root then begin
        if weight.(s) < 0.0 then invalid_arg "Tree.of_parents: negative weight";
        if p < 0 then invalid_arg "Tree.of_parents: parent outside node set"
      end)
    parent;
  let child_off = Array.make (size + 1) 0 in
  Array.iteri
    (fun s p -> if s <> root then child_off.(p + 1) <- child_off.(p + 1) + 1)
    parent;
  for s = 0 to size - 1 do
    child_off.(s + 1) <- child_off.(s + 1) + child_off.(s)
  done;
  let children = Array.make (Int.max 0 (size - 1)) 0 in
  let fill = Array.sub child_off 0 size in
  Array.iteri
    (fun s p ->
      if s <> root then begin
        children.(fill.(p)) <- s;
        fill.(p) <- fill.(p) + 1
      end)
    parent;
  (* Algorithm 1: deal the sorted keys out in contiguous slices along a
     DFS; subtree key ranges follow from the slice arithmetic. A slot's
     own slice of the stored pairs is its slice of the dealt keys, or
     empty when the key space is dealt. *)
  let sorted_pairs = Array.of_list pairs in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) sorted_pairs;
  Array.iteri
    (fun i (k, _) ->
      if i > 0 && fst sorted_pairs.(i - 1) = k then
        invalid_arg "Search_tree.build: duplicate keys")
    sorted_pairs;
  let keys = Array.map fst sorted_pairs and data = Array.map snd sorted_pairs in
  let dealt = if keyspace then universe else Array.length keys in
  let key_at i = if keyspace then i else keys.(i) in
  let slice_start t = t * dealt / size in
  let own_lo = Array.make size 0 and own_hi = Array.make size 0 in
  let sub_lo = Array.make size max_int and sub_hi = Array.make size min_int in
  let depth = Array.make size 0.0 in
  let counter = ref 0 in
  let rec visit s =
    let pre = !counter in
    incr counter;
    if not keyspace then begin
      own_lo.(s) <- slice_start pre;
      own_hi.(s) <- slice_start (pre + 1)
    end;
    for i = child_off.(s) to child_off.(s + 1) - 1 do
      let c = children.(i) in
      depth.(c) <- depth.(s) +. weight.(c);
      visit c
    done;
    let lo = slice_start pre and hi = slice_start !counter in
    if hi > lo then begin
      sub_lo.(s) <- key_at lo;
      sub_hi.(s) <- key_at (hi - 1)
    end
  in
  visit root;
  if !counter <> size then
    invalid_arg "Tree.of_parents: parent pointers do not form a tree";
  { root; ids; parent; chain; child_off; children; sub_lo; sub_hi; own_lo;
    own_hi; keys; data; touched = Array.make size None;
    height = Array.fold_left Float.max 0.0 depth; universe }

let build m ~epsilon ~center ~radius ~members ~level_cap ~pairs ~universe =
  make m ~epsilon ~center ~radius ~members ~level_cap ~pairs ~universe
    ~keyspace:false

let build_keyspace m ~epsilon ~center ~radius ~members ~level_cap ~universe =
  make m ~epsilon ~center ~radius ~members ~level_cap ~pairs:[] ~universe
    ~keyspace:true

let center t = t.ids.(t.root)
let members t = Array.to_list t.ids

let parent t v =
  let p = t.parent.(slot_exn t "parent" v) in
  if p < 0 then None else Some t.ids.(p)

(* {2 Descent}

   Descent is deterministic (first child in id order whose build-time
   subtree range covers the key), which is what makes dynamic inserts
   consistent: Algorithm 1 deals keys pre-order, so a node's own keys lie
   strictly below its children's ranges and the descent for a key always
   stops exactly at the node holding it — whether the pair was installed at
   build time or appended by [insert] at the stop node later. *)

let rec covering_child t key i last =
  if i > last then -1
  else
    let c = t.children.(i) in
    if t.sub_lo.(c) <= key && key <= t.sub_hi.(c) then c
    else covering_child t key (i + 1) last

(* The slot where the descent for [key] stops. *)
let rec descend t key s =
  let c = covering_child t key t.child_off.(s) (t.child_off.(s + 1) - 1) in
  if c < 0 then s else descend t key c

let descent_stop t key = descend t key t.root

let rec pairs_find key = function
  | Nil -> None
  | Pair (k, d, rest) -> if k = key then Some d else pairs_find key rest

let rec pairs_remove key = function
  | Nil -> Nil
  | Pair (k, d, rest) ->
    if k = key then rest else Pair (k, d, pairs_remove key rest)

let rec pairs_count n = function
  | Nil -> n
  | Pair (_, _, rest) -> pairs_count (n + 1) rest

let rec pairs_keys acc = function
  | Nil -> acc
  | Pair (k, _, rest) -> pairs_keys (k :: acc) rest

let find_own t s key =
  match t.touched.(s) with
  | Some pairs -> pairs_find key pairs
  | None ->
    let i = find t.keys key t.own_lo.(s) (t.own_hi.(s) - 1) in
    if i < 0 then None else Some t.data.(i)

(* A slot's current pairs, its build-time slice until first changed. *)
let own_pairs t s =
  match t.touched.(s) with
  | Some pairs -> pairs
  | None ->
    let rec slice i =
      if i = t.own_hi.(s) then Nil
      else Pair (t.keys.(i), t.data.(i), slice (i + 1))
    in
    slice t.own_lo.(s)

(* {2 Paying for a traversal}

   The edge between slot [s] and its parent is crossed toward [dst]: a
   chain edge is a jump at its fixed weight, a net edge a routed move. *)

let cross t s ~dst ~jump ~goto =
  let w = t.chain.(s) in
  if Float.is_nan w then goto t.ids.(dst) else jump t.ids.(dst) w

let rec pay_down t s ~jump ~goto =
  if s <> t.root then begin
    pay_down t t.parent.(s) ~jump ~goto;
    cross t s ~dst:s ~jump ~goto
  end

let rec pay_up t s ~jump ~goto =
  if s <> t.root then begin
    cross t s ~dst:t.parent.(s) ~jump ~goto;
    pay_up t t.parent.(s) ~jump ~goto
  end

let walk t ~key ~jump ~goto =
  let stop = descent_stop t key in
  pay_down t stop ~jump ~goto;
  let data = find_own t stop key in
  pay_up t stop ~jump ~goto;
  data

(* The legs [walk] pays, as a list: down from the root to [stop], then
   back up. *)
let roundtrip t stop =
  let leg s ~src ~dst =
    let w = t.chain.(s) in
    { src = t.ids.(src); dst = t.ids.(dst);
      chained_cost = (if Float.is_nan w then None else Some w) }
  in
  let rec path s acc =
    if s = t.root then acc else path t.parent.(s) (s :: acc)
  in
  let below_root = path stop [] in
  List.map (fun s -> leg s ~src:t.parent.(s) ~dst:s) below_root
  @ List.rev_map (fun s -> leg s ~src:s ~dst:t.parent.(s)) below_root

let search t ~key =
  let stop = descent_stop t key in
  { data = find_own t stop key; legs = roundtrip t stop }

let pay legs ~jump ~goto =
  List.iter
    (fun l ->
      match l.chained_cost with
      | Some c -> jump l.dst c
      | None -> goto l.dst)
    legs

let insert t ~key ~data =
  let stop = descent_stop t key in
  let pairs = own_pairs t stop in
  if Option.is_some (pairs_find key pairs) then
    invalid_arg "Search_tree.insert: key already present";
  t.touched.(stop) <- Some (Pair (key, data, pairs));
  roundtrip t stop

let remove t ~key =
  let stop = descent_stop t key in
  let pairs = own_pairs t stop in
  let removed = Option.is_some (pairs_find key pairs) in
  if removed then t.touched.(stop) <- Some (pairs_remove key pairs);
  (removed, roundtrip t stop)

let height_cost t = t.height

let slot_load t s =
  match t.touched.(s) with
  | Some pairs -> pairs_count 0 pairs
  | None -> t.own_hi.(s) - t.own_lo.(s)

let load t v = slot_load t (slot_exn t "load" v)

let keys t =
  let all = ref [] in
  for s = 0 to Array.length t.ids - 1 do
    all := pairs_keys !all (own_pairs t s)
  done;
  List.sort Int.compare !all

let table_bits t v =
  let s = slot_exn t "table_bits" v in
  let key_bits = Bits.id_bits t.universe in
  let pairs_bits = slot_load t s * 2 * key_bits in
  let own_range = 2 * key_bits in
  let child_count = t.child_off.(s + 1) - t.child_off.(s) in
  (* per child: its subtree key range + the routing label used to traverse
     the virtual edge; plus one label for the parent link *)
  pairs_bits + own_range
  + (child_count * ((2 * key_bits) + key_bits))
  + key_bits

let is_chained t v =
  let s = slot_in t.ids v in
  s >= 0 && not (Float.is_nan t.chain.(s))

let max_degree t =
  let deg = ref 0 in
  Array.iteri
    (fun s p ->
      let d = t.child_off.(s + 1) - t.child_off.(s) + if p >= 0 then 1 else 0 in
      deg := Int.max !deg d)
    t.parent;
  !deg
