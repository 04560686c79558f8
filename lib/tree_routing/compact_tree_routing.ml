module Bits = Cr_metric.Bits

type label = {
  exits : (int * int) list;
  final_pos : int;
}

type t = {
  tree : Tree.t;
  hp : Heavy_path.t;
  pos : (int, int) Hashtbl.t;  (* position along own heavy path *)
  labels : (int, label) Hashtbl.t;
}

let build tree =
  let hp = Heavy_path.build tree in
  let k = Tree.size tree in
  let pos = Hashtbl.create k in
  let labels = Hashtbl.create k in
  (* positions: 0 at each path head, +1 along the heavy path *)
  let rec position v =
    match Hashtbl.find_opt pos v with
    | Some p -> p
    | None ->
      let p =
        if Heavy_path.head hp v = v then 0
        else
          match Tree.parent tree v with
          | Some (parent, _) -> position parent + 1
          | None -> 0
      in
      Hashtbl.replace pos v p;
      p
  in
  let rec label_of v =
    match Hashtbl.find_opt labels v with
    | Some l -> l
    | None ->
      let head = Heavy_path.head hp v in
      let l =
        if head = Tree.root tree then { exits = []; final_pos = position v }
        else begin
          match Tree.parent tree head with
          | Some (u, _) ->
            let lu = label_of u in
            { exits = lu.exits @ [ (lu.final_pos, head) ];
              final_pos = position v }
          | None -> assert false (* only the root's path head has no parent *)
        end
      in
      Hashtbl.replace labels v l;
      l
  in
  List.iter (fun v -> ignore (label_of v)) (Tree.nodes tree);
  { tree; hp; pos; labels }

let label t v = Hashtbl.find t.labels v

let label_bits t v =
  let id = Bits.id_bits (Tree.size t.tree) in
  let l = Hashtbl.find t.labels v in
  (* 8-bit segment count + (position, child) per exit + final position *)
  8 + (List.length l.exits * 2 * id) + id

let max_label_bits t =
  List.fold_left
    (fun acc v -> max acc (label_bits t v))
    0 (Tree.nodes t.tree)

let parent_exn t v =
  match Tree.parent t.tree v with
  | Some (p, _) -> p
  | None -> invalid_arg "Compact_tree_routing: destination not in subtree"

let heavy_child_exn t v =
  match Heavy_path.heavy_child t.hp v with
  | Some c -> c
  | None -> assert false (* the heavy path provably continues here *)

(* Decide the next hop from w's own label against the destination's: any
   divergence before w's light-exit sequence is exhausted sends the packet
   up; otherwise the destination's label itself names the edge down. *)
let next_hop t ~current ~dest =
  let own = Hashtbl.find t.labels current in
  if own = dest then
    invalid_arg "Compact_tree_routing.next_hop: already at destination";
  let rec go own_exits dest_exits =
    match (own_exits, dest_exits) with
    | [], [] ->
      if dest.final_pos > own.final_pos then heavy_child_exn t current
      else parent_exn t current
    | [], (p, c) :: _ ->
      if p > own.final_pos then heavy_child_exn t current
      else if p = own.final_pos then c
      else parent_exn t current
    | _ :: _, [] -> parent_exn t current
    | (pw, cw) :: rest_w, (pv, cv) :: rest_v ->
      if pw = pv && cw = cv then go rest_w rest_v
      else parent_exn t current
  in
  go own.exits dest.exits

let edge_weight_to t v next =
  match Tree.parent t.tree v with
  | Some (p, w) when p = next -> w
  | _ ->
    (match List.assoc_opt next (Tree.children t.tree v) with
    | Some w -> w
    | None -> assert false)

let route t ~src ~dest =
  let rec go v acc cost =
    if Hashtbl.find t.labels v = dest then (List.rev (v :: acc), cost)
    else begin
      let next = next_hop t ~current:v ~dest in
      go next (v :: acc) (cost +. edge_weight_to t v next)
    end
  in
  go src [] 0.0

let table_bits t v =
  let id = Bits.id_bits (Tree.size t.tree) in
  (* parent id + heavy-child id + own label; no per-child entries *)
  (2 * id) + label_bits t v
