module Bits = Cr_metric.Bits

type t = {
  tree : Tree.t;
  dfs : (int, int) Hashtbl.t;  (* external id -> DFS number *)
  owner : int array;  (* DFS number -> external id *)
  interval : (int, int * int) Hashtbl.t;  (* external id -> [lo, hi] *)
}

let build tree =
  let k = Tree.size tree in
  let dfs = Hashtbl.create k in
  let owner = Array.make k (-1) in
  let interval = Hashtbl.create k in
  let next = ref 0 in
  let rec visit v =
    let lo = !next in
    Hashtbl.replace dfs v lo;
    owner.(lo) <- v;
    incr next;
    List.iter (fun (c, _) -> visit c) (Tree.children tree v);
    Hashtbl.replace interval v (lo, !next - 1)
  in
  visit (Tree.root tree);
  { tree; dfs; owner; interval }

let label t v =
  match Hashtbl.find_opt t.dfs v with
  | Some l -> l
  | None -> invalid_arg "Interval_routing.label: node not in tree"

let contains (lo, hi) l = lo <= l && l <= hi

let next_hop t ~current ~dest_label =
  let own = Hashtbl.find t.interval current in
  if label t current = dest_label then
    invalid_arg "Interval_routing.next_hop: already at destination";
  if not (contains own dest_label) then
    match Tree.parent t.tree current with
    | Some (p, _) -> p
    | None -> invalid_arg "Interval_routing.next_hop: label outside tree"
  else
    let child =
      List.find_opt
        (fun (c, _) -> contains (Hashtbl.find t.interval c) dest_label)
        (Tree.children t.tree current)
    in
    match child with
    | Some (c, _) -> c
    | None ->
      (* own interval contains the label but no child does: impossible for
         a label other than our own, which we excluded above *)
      assert false

let route t ~src ~dest_label =
  let rec go v acc cost =
    if label t v = dest_label then (List.rev (v :: acc), cost)
    else begin
      let next = next_hop t ~current:v ~dest_label in
      let w =
        match Tree.parent t.tree v with
        | Some (p, w) when p = next -> w
        | _ ->
          (match List.assoc_opt next (Tree.children t.tree v) with
          | Some w -> w
          | None -> assert false)
      in
      go next (v :: acc) (cost +. w)
    end
  in
  go src [] 0.0

let table_bits t v =
  let k = Tree.size t.tree in
  let per_interval = Bits.range_bits k in
  let child_count = List.length (Tree.children t.tree v) in
  (* own interval + one interval and port per child + parent port *)
  per_interval + (child_count * (per_interval + Bits.id_bits k))
  + Bits.id_bits k

let label_bits t = Bits.id_bits (Tree.size t.tree)
