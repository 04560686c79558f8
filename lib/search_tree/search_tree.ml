module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Rnet = Cr_nets.Rnet
module Tree = Cr_tree.Tree

type leg = {
  src : int;
  dst : int;
  chained_cost : float option;
}

type search_result = {
  data : int option;
  legs : leg list;
}

type node_info = {
  mutable pairs : (int * int) list;  (* slice of the sorted directory,
                                        plus dynamically inserted pairs *)
  mutable subtree_range : (int * int) option;  (* (lo key, hi key) *)
}

type t = {
  metric : Metric.t;
  center : int;
  tree : Tree.t;
  info : (int, node_info) Hashtbl.t;
  chain_weight : (int, float) Hashtbl.t;  (* child -> chain edge weight *)
  universe : int;
}

let remove_from remaining set =
  let drop = Hashtbl.create (List.length set) in
  List.iter (fun v -> Hashtbl.replace drop v ()) set;
  List.filter (fun v -> not (Hashtbl.mem drop v)) remaining

let build m ~epsilon ~center ~radius ~members ~level_cap ~pairs ~universe =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Search_tree.build: epsilon must be in (0, 1)";
  let members = List.sort_uniq Int.compare members in
  if not (List.mem center members) then
    invalid_arg "Search_tree.build: center must be a member";
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
  let parent_of = Hashtbl.create (List.length members) in
  let weight_of = Hashtbl.create (List.length members) in
  let chain_weight = Hashtbl.create 8 in
  let attach v p w =
    Hashtbl.replace parent_of v p;
    Hashtbl.replace weight_of v w
  in
  let remaining = ref (List.filter (fun v -> v <> center) members) in
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
    remaining := remove_from !remaining u_i;
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
      let tail = Hashtbl.create (List.length sites) in
      List.iter (fun s -> Hashtbl.replace tail s s) sites;
      (* Visit leftovers in id order: each joins the chain of its nearest
         site, behind the previously chained node. *)
      List.iter
        (fun v ->
          let site = Metric.nearest_in m v sites in
          let prev = Hashtbl.find tail site in
          attach v prev w_chain;
          Hashtbl.replace chain_weight v w_chain;
          Hashtbl.replace tail site v)
        (List.sort Int.compare !remaining)
    end
    else
      List.iter
        (fun v ->
          let p = Metric.nearest_in m v !prev_level in
          attach v p (Metric.dist m v p))
        !remaining
  end;
  let tree =
    Tree.of_parents ~root:center ~nodes:members
      ~parent:(fun v -> Hashtbl.find parent_of v)
      ~weight:(fun v -> Hashtbl.find weight_of v)
  in
  (* Algorithm 1: deal the sorted pairs out in contiguous slices along a
     DFS; subtree key ranges follow from the slice arithmetic. *)
  let sorted_pairs =
    let arr = Array.of_list pairs in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
    Array.iteri
      (fun i (k, _) ->
        if i > 0 && fst arr.(i - 1) = k then
          invalid_arg "Search_tree.build: duplicate keys")
      arr;
    arr
  in
  let k = Array.length sorted_pairs in
  let m_nodes = Tree.size tree in
  let slice_start t = t * k / m_nodes in
  let info = Hashtbl.create m_nodes in
  let counter = ref 0 in
  let rec visit v =
    let pre = !counter in
    incr counter;
    let own_start = slice_start pre and own_stop = slice_start (pre + 1) in
    let node =
      { pairs =
          Array.to_list (Array.sub sorted_pairs own_start (own_stop - own_start));
        subtree_range = None }
    in
    Hashtbl.replace info v node;
    List.iter (fun (c, _) -> visit c) (Tree.children tree v);
    let post = !counter in
    let lo = slice_start pre and hi = slice_start post in
    node.subtree_range <-
      (if hi > lo then
         Some (fst sorted_pairs.(lo), fst sorted_pairs.(hi - 1))
       else None)
  in
  visit center;
  { metric = m; center; tree; info; chain_weight; universe }

let tree t = t.tree
let center t = t.center
let members t = Tree.nodes t.tree

let in_subtree_range t v key =
  match (Hashtbl.find t.info v).subtree_range with
  | Some (lo, hi) -> lo <= key && key <= hi
  | None -> false

let lookup_own t v key = List.assoc_opt key (Hashtbl.find t.info v).pairs

let leg t src dst =
  { src; dst; chained_cost = Hashtbl.find_opt t.chain_weight dst }

(* Descent is deterministic (first child in id order whose build-time
   subtree range covers the key), which is what makes dynamic inserts
   consistent: Algorithm 1 deals keys pre-order, so a node's own keys lie
   strictly below its children's ranges and the descent for a key always
   stops exactly at the node holding it — whether the pair was installed at
   build time or appended by [insert] at the stop node later. *)
let descend_for t key =
  let rec go v legs =
    let child =
      List.find_opt
        (fun (c, _) -> in_subtree_range t c key)
        (Tree.children t.tree v)
    in
    match child with
    | Some (c, _) -> go c (leg t v c :: legs)
    | None -> (v, legs)
  in
  go t.center []

let roundtrip down =
  let back =
    List.map
      (fun l -> { src = l.dst; dst = l.src; chained_cost = l.chained_cost })
      down
  in
  List.rev_append down back

let search t ~key =
  let stop, down = descend_for t key in
  { data = lookup_own t stop key; legs = roundtrip down }

let pay legs ~jump ~goto =
  List.iter
    (fun l ->
      match l.chained_cost with
      | Some c -> jump l.dst c
      | None -> goto l.dst)
    legs

let insert t ~key ~data =
  let stop, down = descend_for t key in
  let node = Hashtbl.find t.info stop in
  if List.mem_assoc key node.pairs then
    invalid_arg "Search_tree.insert: key already present";
  node.pairs <- (key, data) :: node.pairs;
  roundtrip down

let remove t ~key =
  let stop, down = descend_for t key in
  let node = Hashtbl.find t.info stop in
  let removed = List.mem_assoc key node.pairs in
  if removed then node.pairs <- List.remove_assoc key node.pairs;
  (removed, roundtrip down)

let height_cost t =
  List.fold_left
    (fun acc v -> Float.max acc (Tree.depth_cost t.tree v))
    0.0 (Tree.nodes t.tree)

let load t v = List.length (Hashtbl.find t.info v).pairs

let keys t =
  Hashtbl.fold
    (fun _ node acc -> List.rev_append (List.map fst node.pairs) acc)
    t.info []
  |> List.sort Int.compare

let table_bits t v =
  let key_bits = Bits.id_bits t.universe in
  let node = Hashtbl.find t.info v in
  let pairs_bits = List.length node.pairs * 2 * key_bits in
  let own_range = 2 * key_bits in
  let child_count = List.length (Tree.children t.tree v) in
  (* per child: its subtree key range + the routing label used to traverse
     the virtual edge; plus one label for the parent link *)
  pairs_bits + own_range
  + (child_count * ((2 * key_bits) + key_bits))
  + key_bits

let is_chained t v = Hashtbl.mem t.chain_weight v

let max_degree t =
  List.fold_left
    (fun acc v -> max acc (Tree.degree t.tree v))
    0 (Tree.nodes t.tree)
