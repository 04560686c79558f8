type edge = { u : int; v : int; w : float }

(* Row [u] is [u]'s adjacency in insertion order: neighbour
   [ids.(u).(i)] at weight [wts.(u).(i)] for [i < deg.(u)]. A full row
   doubles its capacity on append, so the arrays past [deg.(u)] are
   spare. *)
type t = {
  n : int;
  ids : int array array;
  wts : float array array;
  deg : int array;
  mutable num_edges : int;
}

let create n =
  if n <= 0 then invalid_arg "Graph.create: n must be positive";
  { n;
    ids = Array.make n [||];
    wts = Array.make n [||];
    deg = Array.make n 0;
    num_edges = 0 }

let n g = g.n
let num_edges g = g.num_edges
let degree g u = g.deg.(u)
let row_ids g u = g.ids.(u)
let row_weights g u = g.wts.(u)

let slot g u v =
  let ids = g.ids.(u) in
  let i = ref (g.deg.(u) - 1) in
  while !i >= 0 && ids.(!i) <> v do
    decr i
  done;
  !i

let append g u v w =
  let d = g.deg.(u) in
  if d = Array.length g.ids.(u) then begin
    let cap = Int.max 4 (2 * d) in
    let ids = Array.make cap 0 and wts = Array.make cap 0.0 in
    Array.blit g.ids.(u) 0 ids 0 d;
    Array.blit g.wts.(u) 0 wts 0 d;
    g.ids.(u) <- ids;
    g.wts.(u) <- wts
  end;
  g.ids.(u).(d) <- v;
  g.wts.(u).(d) <- w;
  g.deg.(u) <- d + 1

let add_edge g u v w =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg "Graph.add_edge: endpoint out of range";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (Float.is_finite w) || w <= 0.0 then
    invalid_arg "Graph.add_edge: weight must be positive and finite";
  if slot g u v >= 0 then invalid_arg "Graph.add_edge: duplicate edge";
  append g u v w;
  append g v u w;
  g.num_edges <- g.num_edges + 1

let neighbors g u =
  let ids = g.ids.(u) and wts = g.wts.(u) in
  List.init g.deg.(u) (fun i -> (ids.(i), wts.(i)))

let iter_neighbors g u f =
  let ids = g.ids.(u) and wts = g.wts.(u) in
  for i = g.deg.(u) - 1 downto 0 do
    f ids.(i) wts.(i)
  done

let max_degree g = Array.fold_left Int.max 0 g.deg

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let ids = g.ids.(u) and wts = g.wts.(u) in
    for i = g.deg.(u) - 1 downto 0 do
      let v = ids.(i) in
      if u < v then acc := { u; v; w = wts.(i) } :: !acc
    done
  done;
  !acc

let edge_weight g u v =
  let i = slot g u v in
  if i < 0 then None else Some g.wts.(u).(i)

let is_connected g =
  let seen = Array.make g.n false in
  (* every node is pushed at most once *)
  let stack = Array.make g.n 0 in
  let top = ref 1 and reached = ref 1 in
  seen.(0) <- true;
  while !top > 0 do
    decr top;
    let u = stack.(!top) in
    let ids = g.ids.(u) in
    for i = 0 to g.deg.(u) - 1 do
      let v = ids.(i) in
      if not seen.(v) then begin
        seen.(v) <- true;
        stack.(!top) <- v;
        incr top;
        incr reached
      end
    done
  done;
  !reached = g.n

let min_edge_weight g =
  let best = ref infinity in
  for u = 0 to g.n - 1 do
    let wts = g.wts.(u) in
    for i = 0 to g.deg.(u) - 1 do
      best := Float.min !best wts.(i)
    done
  done;
  !best

let scale g factor =
  if factor <= 0.0 then invalid_arg "Graph.scale: factor must be positive";
  let g' = create g.n in
  List.iter (fun e -> add_edge g' e.u e.v (e.w *. factor)) (edges g);
  g'
