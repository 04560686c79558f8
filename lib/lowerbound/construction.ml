module Graph = Cr_metric.Graph

type t = {
  graph : Graph.t;
  p : int;
  q : int;
  paths : int list array array;  (* paths.(i).(j) = node ids of T_(i,j) *)
}

let build ~n ~p ~q =
  if n < 2 then invalid_arg "Construction.build: n must be >= 2";
  if p < 1 || q < 1 then invalid_arg "Construction.build: p, q must be >= 1";
  let c = p * q in
  let boundary k =
    (* round(n^(k/c)); boundary 0 = 1 (the root), boundary c = n *)
    int_of_float (Float.round (Float.pow (float_of_int n) (float_of_int k /. float_of_int c)))
  in
  let g = Graph.create n in
  let paths = Array.init p (fun _ -> Array.make q []) in
  let next = ref 1 in
  let inner = 1.0 /. float_of_int n in
  for i = 0 to p - 1 do
    for j = 0 to q - 1 do
      let k = (i * q) + j in
      let size = boundary (k + 1) - boundary k in
      if size > 0 then begin
        let ids = List.init size (fun d -> !next + d) in
        next := !next + size;
        paths.(i).(j) <- ids;
        (* internal path edges of weight 1/n *)
        List.iteri
          (fun d v -> if d > 0 then Graph.add_edge g (v - 1) v inner)
          ids;
        (* root to the middle node, weight 2^i (q + j) *)
        let middle = List.nth ids (size / 2) in
        let w = Float.pow 2.0 (float_of_int i) *. float_of_int (q + j) in
        Graph.add_edge g 0 middle w
      end
    done
  done;
  assert (!next = n);
  { graph = g; p; q; paths }

let of_epsilon ~epsilon ~n =
  if epsilon <= 0.0 || epsilon >= 8.0 then
    invalid_arg "Construction.of_epsilon: epsilon must be in (0, 8)";
  let p = int_of_float (Float.ceil (72.0 /. epsilon)) + 6 in
  let q = int_of_float (Float.ceil (48.0 /. epsilon)) - 4 in
  build ~n ~p ~q

let graph t = t.graph
let p t = t.p
let q t = t.q

let path_nodes t ~i ~j =
  if i < 0 || i >= t.p || j < 0 || j >= t.q then
    invalid_arg "Construction.path_nodes: index out of range";
  t.paths.(i).(j)

let expected_dimension_bound ~epsilon = 6.0 -. Float.log2 epsilon
