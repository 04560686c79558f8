(* Version-stamped scratch: [stamp.(v) = version] marks v's dist/pred/owner
   as belonging to the current run, [done_.(v) = version] marks it settled.
   Resetting is a single increment (and a heap clear), so a ball-limited
   run costs only the nodes it touches. [run]'s relaxation is copied from
   Dijkstra.run line for line (same tie-break, same push policy, same row
   scan); [run_multi]'s is the library's only multi-source loop, which
   Dijkstra.multi_source runs at an infinite radius. The one addition is
   the [d > radius] cutoff at pop time, which is exhaustive because popped
   priorities are nondecreasing. The heap is keyed by [dist], so a warmed
   scratch allocates nothing. *)
type t = {
  n : int;
  dist : float array;
  pred : int array;
  owner : int array;
  stamp : int array;
  done_ : int array;
  order : int array;
  heap : Priority_queue.t;
  mutable settled : int;
  mutable version : int;
}

let create n =
  if n < 1 then invalid_arg "Bounded.create: n must be >= 1";
  { n;
    dist = Array.make n infinity;
    pred = Array.make n (-1);
    owner = Array.make n (-1);
    stamp = Array.make n 0;
    done_ = Array.make n 0;
    order = Array.make n 0;
    heap = Priority_queue.create ();
    settled = 0;
    version = 0 }

let touch t v =
  if t.stamp.(v) <> t.version then begin
    t.stamp.(v) <- t.version;
    t.dist.(v) <- infinity;
    t.pred.(v) <- -1;
    t.owner.(v) <- -1
  end

let begin_run t g ~radius name =
  if Graph.n g <> t.n then invalid_arg (name ^ ": graph size mismatch");
  if not (radius >= 0.0) then invalid_arg (name ^ ": radius must be >= 0");
  t.version <- t.version + 1;
  t.settled <- 0;
  Priority_queue.clear t.heap

let settle t u =
  if t.done_.(u) <> t.version then begin
    t.done_.(u) <- t.version;
    t.order.(t.settled) <- u;
    t.settled <- t.settled + 1
  end

let run t g ~src ~radius =
  begin_run t g ~radius "Bounded.run";
  if src < 0 || src >= t.n then invalid_arg "Bounded.run: source out of range";
  let heap = t.heap and dist = t.dist and pred = t.pred in
  touch t src;
  dist.(src) <- 0.0;
  t.owner.(src) <- src;
  Priority_queue.push heap dist src;
  let next = ref (Priority_queue.pop heap dist) in
  while !next >= 0 do
    let u = !next in
    let d = dist.(u) in
    if d > radius then next := -1
    else begin
      settle t u;
      let ids = Graph.row_ids g u and wts = Graph.row_weights g u in
      for i = 0 to Graph.degree g u - 1 do
        let v = ids.(i) in
        let cand = d +. wts.(i) in
        touch t v;
        let dv = dist.(v) in
        (* ties as in [Dijkstra.run]: only onto a strictly closer [u] *)
        if
          cand < dv
          || (Float.equal cand dv && d < dv && pred.(v) >= 0 && u < pred.(v))
        then begin
          dist.(v) <- cand;
          pred.(v) <- u;
          t.owner.(v) <- src;
          if cand < dv then Priority_queue.push heap dist v
        end
      done;
      next := Priority_queue.pop heap dist
    end
  done;
  t.settled

(* A top-level recursion rather than [List.iter] over a closure, so that
   seeding allocates nothing either. *)
let rec seed_sources t = function
  | [] -> ()
  | s :: rest ->
    if s < 0 || s >= t.n then
      invalid_arg "Bounded.run_multi: source out of range";
    touch t s;
    if 0.0 < t.dist.(s) || t.owner.(s) = -1 || s < t.owner.(s) then begin
      t.dist.(s) <- 0.0;
      t.owner.(s) <- s;
      t.pred.(s) <- -1;
      Priority_queue.push t.heap t.dist s
    end;
    seed_sources t rest

let run_multi t g ~sources ~radius =
  begin_run t g ~radius "Bounded.run_multi";
  if sources = [] then invalid_arg "Bounded.run_multi: no sources";
  seed_sources t sources;
  let heap = t.heap and dist = t.dist and owner = t.owner in
  let next = ref (Priority_queue.pop heap dist) in
  while !next >= 0 do
    let u = !next in
    let d = dist.(u) in
    if d > radius then next := -1
    else begin
      settle t u;
      let o = owner.(u) in
      let ids = Graph.row_ids g u and wts = Graph.row_weights g u in
      for i = 0 to Graph.degree g u - 1 do
        let v = ids.(i) in
        let cand = d +. wts.(i) in
        touch t v;
        let dv = dist.(v) in
        if cand < dv || (Float.equal cand dv && d < dv && o < owner.(v))
        then begin
          dist.(v) <- cand;
          owner.(v) <- o;
          t.pred.(v) <- u;
          Priority_queue.push heap dist v
        end
      done;
      next := Priority_queue.pop heap dist
    end
  done;
  t.settled

let settled_count t = t.settled
let settled t v = t.done_.(v) = t.version
let dist t v = if t.done_.(v) = t.version then t.dist.(v) else infinity
let pred t v = if t.done_.(v) = t.version then t.pred.(v) else -1
let owner t v = if t.done_.(v) = t.version then t.owner.(v) else -1

let iter_settled t f =
  for i = 0 to t.settled - 1 do
    f t.order.(i)
  done
