type t = {
  tree : Tree.t;
  heavy : (int, int) Hashtbl.t;  (* node -> heavy child *)
  light_depth : (int, int) Hashtbl.t;
  head : (int, int) Hashtbl.t;  (* node -> head of its heavy path *)
}

let build tree =
  let k = Tree.size tree in
  let size = Hashtbl.create k in
  let heavy = Hashtbl.create k in
  let light_depth = Hashtbl.create k in
  let head = Hashtbl.create k in
  let rec compute_size v =
    let total =
      List.fold_left
        (fun acc (c, _) -> acc + compute_size c)
        1 (Tree.children tree v)
    in
    Hashtbl.replace size v total;
    total
  in
  ignore (compute_size (Tree.root tree));
  let rec assign v ~depth ~path_head =
    Hashtbl.replace light_depth v depth;
    Hashtbl.replace head v path_head;
    let children = Tree.children tree v in
    match children with
    | [] -> ()
    | _ ->
      let hc =
        List.fold_left
          (fun best (c, _) ->
            match best with
            | None -> Some c
            | Some b ->
              if Hashtbl.find size c > Hashtbl.find size b then Some c
              else best)
          None children
      in
      let hc = Option.get hc in
      Hashtbl.replace heavy v hc;
      List.iter
        (fun (c, _) ->
          if c = hc then assign c ~depth ~path_head
          else assign c ~depth:(depth + 1) ~path_head:c)
        children
  in
  let root = Tree.root tree in
  assign root ~depth:0 ~path_head:root;
  { tree; heavy; light_depth; head }

let heavy_child t v = Hashtbl.find_opt t.heavy v
let light_depth t v = Hashtbl.find t.light_depth v

let max_light_depth t =
  List.fold_left
    (fun acc v -> max acc (light_depth t v))
    0
    (Tree.nodes t.tree)

let head t v = Hashtbl.find t.head v
