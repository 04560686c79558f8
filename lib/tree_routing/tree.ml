type t = {
  root : int;
  index : (int, int) Hashtbl.t;  (* external id -> internal index *)
  ids : int array;  (* internal index -> external id *)
  parent : int array;  (* internal parent index; -1 at root *)
  weight : float array;  (* weight of edge to parent *)
  children : (int * float) list array;  (* internal, by increasing child id *)
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
  (* Verify acyclicity/connectedness with one pass from the root. *)
  let visited = ref 1 in
  let rec visit i =
    List.iter
      (fun (c, _) ->
        incr visited;
        visit c)
      children.(i)
  in
  visit (Hashtbl.find index root);
  if !visited <> k then
    invalid_arg "Tree.of_parents: parent pointers do not form a tree";
  { root; index; ids; parent = parent_arr; weight = weight_arr; children }

let root t = t.root
let size t = Array.length t.ids

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
