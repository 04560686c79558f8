type result = {
  dist : float array;
  pred : int array;
}

(* Relaxations break ties toward the smaller predecessor id so that the
   shortest-path forest is deterministic. The loop reads [u]'s rows
   directly; the final dist and pred do not depend on the scan order,
   since each is a minimum over tight predecessors, all popped before
   the node itself. A tie re-parents [v] only onto a strictly closer
   [u]: past 2^53 an edge weight can round away (d + w = d), and a tie
   between two nodes at the same distance would make each the other's
   predecessor. A non-empty [order] receives the nodes in pop (settle)
   order, which is (distance, id) order except where an edge weight
   rounds away; [run] passes the empty array and records nothing. *)
let search g s order =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra.run: source out of range";
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let heap = Priority_queue.create () in
  dist.(s) <- 0.0;
  Priority_queue.push heap dist s;
  let record = Array.length order > 0 in
  let settled = ref 0 in
  let next = ref (Priority_queue.pop heap dist) in
  while !next >= 0 do
    let u = !next in
    let d = dist.(u) in
    if record then begin
      order.(!settled) <- u;
      incr settled
    end;
    let ids = Graph.row_ids g u and wts = Graph.row_weights g u in
    for i = 0 to Graph.degree g u - 1 do
      let v = ids.(i) in
      let cand = d +. wts.(i) in
      let dv = dist.(v) in
      if
        cand < dv
        || (Float.equal cand dv && d < dv && pred.(v) >= 0 && u < pred.(v))
      then begin
        dist.(v) <- cand;
        pred.(v) <- u;
        if cand < dv then Priority_queue.push heap dist v
      end
    done;
    next := Priority_queue.pop heap dist
  done;
  { dist; pred }

let run g s = search g s [||]

let run_ordered g s =
  let order = Array.make (Graph.n g) 0 in
  let r = search g s order in
  (r, order)

(* Bounded.run_multi at an infinite radius settles every reachable node;
   the rest read Bounded's defaults (infinity, -1, -1). The sources are
   checked here first so the messages name this function. *)
let multi_source g sources =
  let n = Graph.n g in
  if sources = [] then invalid_arg "Dijkstra.multi_source: no sources";
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg "Dijkstra.multi_source: source out of range")
    sources;
  let b = Bounded.create n in
  ignore (Bounded.run_multi b g ~sources ~radius:infinity);
  ( Array.init n (Bounded.dist b),
    Array.init n (Bounded.owner b),
    Array.init n (Bounded.pred b) )
