type t = {
  root : int;
  index : (int, int) Hashtbl.t;  (* external id -> internal index *)
  ids : int array;  (* internal index -> external id *)
  parent : int array;  (* internal parent index; -1 at root *)
  weight : float array;  (* weight of edge to parent *)
  children : (int * float) list array;  (* internal, by increasing child id *)
  depth_cost : float array;
  depth_hops : int array;
}

let of_parents ~root ~nodes ~parent ~weight =
  let nodes = List.sort_uniq Int.compare nodes in
  let k = List.length nodes in
  if k = 0 then invalid_arg "Tree.of_parents: empty node set";
  let index = Hashtbl.create k in
  let ids = Array.of_list nodes in
  Array.iteri (fun i v -> Hashtbl.replace index v i) ids;
  if not (Hashtbl.mem index root) then
    invalid_arg "Tree.of_parents: root not among nodes";
  let parent_arr = Array.make k (-1) in
  let weight_arr = Array.make k 0.0 in
  let children = Array.make k [] in
  Array.iteri
    (fun i v ->
      if v <> root then begin
        let p = parent v in
        let w = weight v in
        if w < 0.0 then invalid_arg "Tree.of_parents: negative weight";
        match Hashtbl.find_opt index p with
        | None -> invalid_arg "Tree.of_parents: parent outside node set"
        | Some pi ->
          parent_arr.(i) <- pi;
          weight_arr.(i) <- w;
          children.(pi) <- (i, w) :: children.(pi)
      end)
    ids;
  Array.iteri
    (fun i l ->
      children.(i) <-
        List.sort (fun (a, _) (b, _) -> Int.compare ids.(a) ids.(b)) l)
    children;
  (* Verify acyclicity/connectedness and compute depth costs with one pass
     from the root. *)
  let depth_cost = Array.make k nan in
  let depth_hops = Array.make k 0 in
  let ri = Hashtbl.find index root in
  depth_cost.(ri) <- 0.0;
  let visited = ref 1 in
  let rec visit i =
    List.iter
      (fun (c, w) ->
        depth_cost.(c) <- depth_cost.(i) +. w;
        depth_hops.(c) <- depth_hops.(i) + 1;
        incr visited;
        visit c)
      children.(i)
  in
  visit ri;
  if !visited <> k then
    invalid_arg "Tree.of_parents: parent pointers do not form a tree";
  { root; index; ids; parent = parent_arr; weight = weight_arr; children;
    depth_cost; depth_hops }

let root t = t.root
let size t = Array.length t.ids
let nodes t = Array.to_list t.ids
let mem t v = Hashtbl.mem t.index v

let idx t v =
  match Hashtbl.find_opt t.index v with
  | Some i -> i
  | None -> invalid_arg "Tree: node not in tree"

let parent t v =
  let i = idx t v in
  if t.parent.(i) < 0 then None
  else Some (t.ids.(t.parent.(i)), t.weight.(i))

let children t v =
  List.map (fun (c, w) -> (t.ids.(c), w)) t.children.(idx t v)

let degree t v =
  let i = idx t v in
  List.length t.children.(i) + if t.parent.(i) >= 0 then 1 else 0

let depth_cost t v = t.depth_cost.(idx t v)

(* Walk both endpoints up to their lowest common ancestor (ordered by hop
   depth, which is robust to zero-weight edges), accumulating edge
   weights. *)
let path_cost t u v =
  let rec go i j acc =
    if i = j then acc
    else if t.depth_hops.(i) >= t.depth_hops.(j) then
      go t.parent.(i) j (acc +. t.weight.(i))
    else go i t.parent.(j) (acc +. t.weight.(j))
  in
  go (idx t u) (idx t v) 0.0
