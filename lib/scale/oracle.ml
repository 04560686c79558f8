module Graph = Cr_metric.Graph
module Dijkstra = Cr_metric.Dijkstra
module Trace = Cr_obs.Trace

type counters = {
  mutable c_sssp : int;
  mutable c_settled : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
}

type snapshot = {
  sssp_runs : int;
  settled : int;
  hits : int;
  misses : int;
  evictions : int;
  cached : int;
}

type t = {
  graph : Graph.t;  (* normalized: min edge weight 1.0 *)
  factor : float;
  n : int;
  budget : int;
  rows : float array array;  (* [||] marks an absent row *)
  queue : int array;  (* FIFO ring of resident sources *)
  mutable q_head : int;
  mutable q_len : int;
  stats : counters;
  ctx : Trace.context;
}

let create ?obs ?(budget = 64) graph =
  if budget < 1 then invalid_arg "Oracle.create: budget must be >= 1";
  if Graph.n graph < 2 then invalid_arg "Oracle.create: need at least 2 nodes";
  if not (Graph.is_connected graph) then
    invalid_arg "Oracle.create: graph must be connected";
  let w = Graph.min_edge_weight graph in
  (* The min pairwise shortest distance is the min edge weight, so this is
     exactly Metric.of_graph's normalization condition and factor. *)
  let graph, factor =
    if Float.equal w 1.0 then (graph, 1.0)
    else (Graph.scale graph (1.0 /. w), 1.0 /. w)
  in
  { graph;
    factor;
    n = Graph.n graph;
    budget;
    rows = Array.make (Graph.n graph) [||];
    queue = Array.make budget 0;
    q_head = 0;
    q_len = 0;
    stats = { c_sssp = 0; c_settled = 0; c_hits = 0; c_misses = 0;
              c_evictions = 0 };
    ctx = Trace.resolve obs }

let run_sssp t u =
  let res = Dijkstra.run t.graph u in
  res.Dijkstra.dist

let miss t u =
  let s = t.stats in
  s.c_misses <- s.c_misses + 1;
  s.c_sssp <- s.c_sssp + 1;
  s.c_settled <- s.c_settled + t.n;
  if t.q_len = t.budget then begin
    let victim = t.queue.(t.q_head) in
    t.q_head <- (t.q_head + 1) mod t.budget;
    t.q_len <- t.q_len - 1;
    t.rows.(victim) <- [||];
    s.c_evictions <- s.c_evictions + 1
  end;
  let r =
    if Trace.enabled t.ctx then
      Trace.span t.ctx "scale.oracle.sssp" (fun () -> run_sssp t u)
    else run_sssp t u
  in
  if Trace.enabled t.ctx then begin
    Trace.counter t.ctx "scale.oracle.sssp_runs" (float_of_int s.c_sssp);
    Trace.counter t.ctx "scale.oracle.settled" (float_of_int s.c_settled)
  end;
  t.rows.(u) <- r;
  t.queue.((t.q_head + t.q_len) mod t.budget) <- u;
  t.q_len <- t.q_len + 1;
  r

(* The serving fast path: a resident row comes back with two array reads,
   a length test, and an int counter bump — proven allocation-free by the
   typed lint tier. *)
let[@cr.zero_alloc] row t u =
  let r = t.rows.(u) in
  if Array.length r > 0 then begin
    t.stats.c_hits <- t.stats.c_hits + 1;
    r
  end
  else
    (miss t u
    [@cr.alloc_ok
      "a cache miss runs a full single-source Dijkstra and allocates the \
       row it caches, by design; the hit path above returns the resident \
       row without allocating"])

let dist t u v = (row t u).(v)

let graph t = t.graph
let n t = t.n
let factor t = t.factor
let budget t = t.budget

let levels_upper t =
  let r0 = row t 0 in
  let ecc = Array.fold_left Float.max 0.0 r0 in
  let target = 2.0 *. ecc in
  let rec go i cover =
    if cover >= target then i else go (i + 1) (2.0 *. cover)
  in
  max 1 (go 0 1.0)

let snapshot t =
  { sssp_runs = t.stats.c_sssp;
    settled = t.stats.c_settled;
    hits = t.stats.c_hits;
    misses = t.stats.c_misses;
    evictions = t.stats.c_evictions;
    cached = t.q_len }
