module Pool = Cr_par.Pool

type t = {
  graph : Graph.t;
  n : int;
  dist : float array;  (* row-major n*n distance matrix *)
  order : int array;  (* row-major: row u = node ids by (d(u, -), id) *)
  pred : int array;
      (* row-major: row s = predecessors on s's canonical shortest-path
         forest, -1 at s *)
  min_distance : float;
  diameter : float;
}

let d m u v = m.dist.((u * m.n) + v)

let validate graph =
  if Graph.n graph < 2 then
    invalid_arg "Metric.of_graph: need at least 2 nodes";
  if not (Graph.is_connected graph) then
    invalid_arg "Metric.of_graph: graph must be connected"

(* The two O(n . Dijkstra) / O(n^2 log n) stages fan out over the pool;
   each source (resp. row) is independent and results land by index, so the
   output is identical to the sequential run (see Cr_par.Pool). Every n*n
   table is one row-major block, like [dist]; the per-source rows are
   copied in and dropped, the one-sided distances among them. *)
let build ~pool graph =
  let n = Graph.n graph in
  let dist = Array.make (n * n) infinity in
  let sssp = Pool.parallel_init pool n (fun s -> Dijkstra.run graph s) in
  let pred = Array.make (n * n) (-1) in
  for s = 0 to n - 1 do
    Array.blit sssp.(s).Dijkstra.dist 0 dist (s * n) n;
    Array.blit sssp.(s).Dijkstra.pred 0 pred (s * n) n
  done;
  (* Per-source Dijkstra runs can round the same path sum differently;
     force exact symmetry by keeping the smaller value of each pair. *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let x = Float.min dist.((u * n) + v) dist.((v * n) + u) in
      dist.((u * n) + v) <- x;
      dist.((v * n) + u) <- x
    done
  done;
  let min_distance = ref infinity and diameter = ref 0.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let x = dist.((u * n) + v) in
      if x < !min_distance then min_distance := x;
      if x > !diameter then diameter := x
    done
  done;
  let rows =
    Pool.parallel_init pool n (fun u ->
        let base = u * n in
        let ids = Array.init n Fun.id in
        (* merge sort, faster here than Array.sort's heap sort; the key
           (distance, id) is total, so stability changes nothing *)
        Array.stable_sort
          (fun a b ->
            let c = Float.compare dist.(base + a) dist.(base + b) in
            if c <> 0 then c else Int.compare a b)
          ids;
        ids)
  in
  let order = Array.make (n * n) 0 in
  Array.iteri (fun u row -> Array.blit row 0 order (u * n) n) rows;
  { graph; n; dist; order; pred;
    min_distance = !min_distance; diameter = !diameter }

let of_graph_unnormalized ?(pool = Pool.default ()) graph =
  validate graph;
  build ~pool graph

(* The least pairwise distance is the lightest edge weight (weights are
   positive, so a path is never shorter than any of its edges), which
   gives the normalization factor without a first, unscaled build. *)
let of_graph ?(pool = Pool.default ()) graph =
  validate graph;
  let w = Graph.min_edge_weight graph in
  build ~pool
    (if Float.equal w 1.0 then graph else Graph.scale graph (1.0 /. w))

let graph m = m.graph
let n m = m.n
let dist m u v = d m u v
let diameter m = m.diameter
let min_distance m = m.min_distance
let normalized_diameter m = m.diameter /. m.min_distance

(* At least 1: with Delta = 1 (all pairwise distances equal) level 0 is
   every node, so the top net {0} needs a level of its own. *)
let levels m =
  let delta = normalized_diameter m in
  let rec go i cover = if cover >= delta then i else go (i + 1) (2.0 *. cover) in
  max 1 (go 0 1.0)

let ball m ~center ~radius =
  let acc = ref [] in
  for v = m.n - 1 downto 0 do
    if d m center v <= radius then acc := v :: !acc
  done;
  !acc

let radius_of_size m u size =
  if size < 1 || size > m.n then
    invalid_arg "Metric.radius_of_size: size out of range";
  (* entry k of row u is u's (k+1)-th closest node (u itself at k = 0), so
     r_u for a ball of [size] nodes is the distance to entry size-1. *)
  d m u m.order.((u * m.n) + size - 1)

let nearest_k m u k =
  if k < 1 || k > m.n then invalid_arg "Metric.nearest_k: k out of range";
  let base = u * m.n in
  let rec prefix i acc =
    if i < 0 then acc else prefix (i - 1) (m.order.(base + i) :: acc)
  in
  prefix (k - 1) []

let nearest_in m u candidates =
  match candidates with
  | [] -> invalid_arg "Metric.nearest_in: empty candidate list"
  | first :: rest ->
    List.fold_left
      (fun best v ->
        let dv = d m u v and db = d m u best in
        if dv < db || (Float.equal dv db && v < best) then v else best)
      first rest

(* A node's first hop is its own id when its predecessor is the source,
   else its predecessor's first hop: memoized along each predecessor
   chain, so the row costs O(n) and needs no distance order. *)
let first_hops m ~src =
  let base = src * m.n in
  let hop = Array.make m.n (-1) in
  let rec first v =
    if hop.(v) < 0 then begin
      let p = m.pred.(base + v) in
      hop.(v) <- (if p = src then v else first p)
    end;
    hop.(v)
  in
  for v = 0 to m.n - 1 do
    if v <> src then ignore (first v)
  done;
  hop

let shortest_path m ~src ~dst =
  let base = src * m.n in
  let rec build v acc =
    let p = m.pred.(base + v) in
    if p = -1 then v :: acc else build p (v :: acc)
  in
  build dst []
