type edge = { u : int; v : int; w : float }

type t = {
  n : int;
  adj : (int * float) list array;
  (* Adjacency lists are kept in reverse insertion order internally and
     reversed on read, so [neighbors] reports insertion order. *)
  mutable num_edges : int;
}

let create n =
  if n <= 0 then invalid_arg "Graph.create: n must be positive";
  { n; adj = Array.make n []; num_edges = 0 }

let n g = g.n
let num_edges g = g.num_edges

let mem_edge g u v = List.exists (fun (x, _) -> x = v) g.adj.(u)

let add_edge g u v w =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg "Graph.add_edge: endpoint out of range";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (Float.is_finite w) || w <= 0.0 then
    invalid_arg "Graph.add_edge: weight must be positive and finite";
  if mem_edge g u v then invalid_arg "Graph.add_edge: duplicate edge";
  g.adj.(u) <- (v, w) :: g.adj.(u);
  g.adj.(v) <- (u, w) :: g.adj.(v);
  g.num_edges <- g.num_edges + 1

let of_edges n edges =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge g u v w) edges;
  g

let neighbors g u = List.rev g.adj.(u)

let iter_neighbors g u f = List.iter (fun (v, w) -> f v w) g.adj.(u)

let degree g u = List.length g.adj.(u)

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    let d = degree g u in
    if d > !best then best := d
  done;
  !best

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun (v, w) -> if u < v then acc := { u; v; w } :: !acc) g.adj.(u)
  done;
  !acc

let edge_weight g u v =
  match List.find_opt (fun (x, _) -> x = v) g.adj.(u) with
  | Some (_, w) -> Some w
  | None -> None

let is_connected g =
  let seen = Array.make g.n false in
  let rec visit stack =
    match stack with
    | [] -> ()
    | u :: rest ->
      let rest =
        List.fold_left
          (fun acc (v, _) ->
            if seen.(v) then acc
            else begin
              seen.(v) <- true;
              v :: acc
            end)
          rest g.adj.(u)
      in
      visit rest
  in
  seen.(0) <- true;
  visit [ 0 ];
  Array.for_all Fun.id seen

let min_edge_weight g =
  Array.fold_left
    (List.fold_left (fun acc (_, w) -> Float.min acc w))
    infinity g.adj

let total_weight g =
  List.fold_left (fun acc e -> acc +. e.w) 0.0 (edges g)

let scale g factor =
  if factor <= 0.0 then invalid_arg "Graph.scale: factor must be positive";
  let g' = create g.n in
  List.iter (fun e -> add_edge g' e.u e.v (e.w *. factor)) (edges g);
  g'

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d)" g.n g.num_edges
