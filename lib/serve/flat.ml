module Graph = Cr_metric.Graph

type t = {
  n : int;
  off : int array;  (* n + 1 row offsets *)
  nbr : int array;  (* neighbor ids, sorted within each row *)
  wgt : float array;  (* aligned with nbr *)
}

let of_graph g =
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graph.degree g u
  done;
  let total = off.(n) in
  let nbr = Array.make total 0 in
  let wgt = Array.make total 0.0 in
  for u = 0 to n - 1 do
    let row =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Graph.neighbors g u)
    in
    List.iteri
      (fun k (v, w) ->
        nbr.(off.(u) + k) <- v;
        wgt.(off.(u) + k) <- w)
      row
  done;
  { n; off; nbr; wgt }

let n t = t.n
let degree t u = t.off.(u + 1) - t.off.(u)

let rec find t v lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = t.nbr.(mid) in
    if x = v then mid else if x < v then find t v (mid + 1) hi else find t v lo (mid - 1)

let edge_exn t u v =
  let s = find t v t.off.(u) (t.off.(u + 1) - 1) in
  if s < 0 then invalid_arg "Flat.edge_exn: not a neighbor" else s

let weights t = t.wgt

let words t =
  Array.length t.off + Array.length t.nbr + Array.length t.wgt
