(* Streaming traffic telemetry (see live.mli). Internally: a ring of
   per-window accumulators keyed by a logical clock, {!Qsketch} quantile
   sketches, {!Topk} heavy-hitter tables, and exact per-edge
   Hashtbls mutated in place on the hot path. Every accessor folds and
   sorts (the lib/obs exemption from the cr_lint determinism rule), so
   output order is a function of contents only. *)

type status = Delivered | Rerouted | Undeliverable

(* Node ids are packed into Topk edge keys as (u << 20) | v. *)
let id_limit = 1 lsl 20

type cell = { mutable n : int }

type window = {
  w_index : int;
  mutable w_routes : int;
  mutable w_delivered : int;
  mutable w_rerouted : int;
  mutable w_undeliverable : int;
  w_stretch : Qsketch.t;
  w_hops : Qsketch.t;
  w_latency : Qsketch.t;
  w_edges : (int * int, cell) Hashtbl.t;
  mutable w_edge_messages : int;
  mutable w_util_max : int;
  w_dst : Topk.t;
  w_src : Topk.t;
  w_edge : Topk.t;
}

type t = {
  on : bool;
  window : int;
  depth : int;
  k : int;
  cap : int;
  mutable clock : int;
  ring : window option array;  (* slot = window index mod depth *)
  mutable n_evicted : int;
  (* run-level accumulators, immune to window eviction *)
  mutable r_routes : int;
  mutable r_delivered : int;
  mutable r_rerouted : int;
  mutable r_undeliverable : int;
  r_stretch : Qsketch.t;
  r_edges : (int * int, cell) Hashtbl.t;
  mutable r_edge_messages : int;
  mutable r_util_max : int;
  r_dst : Topk.t;
  r_src : Topk.t;
}

type edge_load = {
  u : int;
  v : int;
  messages : int;
}

type hot = {
  hot_key : int;
  hot_count : int;
  hot_err : int;
}

type hot_edge = {
  he_u : int;
  he_v : int;
  he_count : int;
  he_err : int;
}

type window_stats = {
  ws_index : int;
  ws_routes : int;
  ws_delivered : int;
  ws_rerouted : int;
  ws_undeliverable : int;
  ws_delivery_rate : float;
  ws_stretch_p50 : float;
  ws_stretch_p95 : float;
  ws_stretch_p99 : float;
  ws_stretch_max : float;
  ws_hops_p50 : float;
  ws_hops_p99 : float;
  ws_latency_p50 : float;
  ws_latency_p99 : float;
  ws_edge_messages : int;
  ws_util_max : int;
  ws_edges_touched : int;
  ws_top_edges : hot_edge list;
  ws_top_dsts : hot list;
  ws_top_srcs : hot list;
}

type totals = {
  t_routes : int;
  t_delivered : int;
  t_rerouted : int;
  t_undeliverable : int;
  t_delivery_rate : float;
  t_stretch_p50 : float;
  t_stretch_p95 : float;
  t_stretch_p99 : float;
  t_stretch_max : float;
  t_edge_messages : int;
  t_util_max : int;
}

let make on ~window ~depth ~k ~capacity =
  { on;
    window;
    depth;
    k;
    cap = capacity;
    clock = 0;
    ring = Array.make depth None;
    n_evicted = 0;
    r_routes = 0;
    r_delivered = 0;
    r_rerouted = 0;
    r_undeliverable = 0;
    r_stretch = Qsketch.create ();
    r_edges = Hashtbl.create 64;
    r_edge_messages = 0;
    r_util_max = 0;
    r_dst = Topk.create ~capacity;
    r_src = Topk.create ~capacity }

let null = make false ~window:1 ~depth:1 ~k:1 ~capacity:1

let create ?(window = 256) ?(depth = 8) ?(k = 5) ?(capacity = 64) () =
  if window <= 0 then invalid_arg "Live.create: window must be > 0";
  if depth <= 0 then invalid_arg "Live.create: depth must be > 0";
  if k <= 0 then invalid_arg "Live.create: k must be > 0";
  if capacity < k then invalid_arg "Live.create: capacity must be >= k";
  make true ~window ~depth ~k ~capacity

let enabled t = t.on
let clock t = t.clock
let evicted t = t.n_evicted

let fresh_window t wi =
  { w_index = wi;
    w_routes = 0;
    w_delivered = 0;
    w_rerouted = 0;
    w_undeliverable = 0;
    w_stretch = Qsketch.create ();
    w_hops = Qsketch.create ();
    w_latency = Qsketch.create ();
    w_edges = Hashtbl.create 64;
    w_edge_messages = 0;
    w_util_max = 0;
    w_dst = Topk.create ~capacity:t.cap;
    w_src = Topk.create ~capacity:t.cap;
    w_edge = Topk.create ~capacity:t.cap }

(* The window owning the current tick ([tick] 1..window is window 0);
   recording before the first tick lands in window 0. *)
let cur_index t = if t.clock = 0 then 0 else (t.clock - 1) / t.window

let current t =
  let wi = cur_index t in
  let slot = wi mod t.depth in
  match t.ring.(slot) with
  | Some w when w.w_index = wi -> w
  | prev ->
    if Option.is_some prev then t.n_evicted <- t.n_evicted + 1;
    let w = fresh_window t wi in
    t.ring.(slot) <- Some w;
    w

let tick_enabled t =
  t.clock <- t.clock + 1;
  ignore (current t : window)

let record_enabled t ~src ~dst ~status ~dist ~cost ~hops =
  let w = current t in
  w.w_routes <- w.w_routes + 1;
  t.r_routes <- t.r_routes + 1;
  (match status with
  | Delivered ->
    w.w_delivered <- w.w_delivered + 1;
    t.r_delivered <- t.r_delivered + 1
  | Rerouted ->
    w.w_rerouted <- w.w_rerouted + 1;
    t.r_rerouted <- t.r_rerouted + 1
  | Undeliverable ->
    w.w_undeliverable <- w.w_undeliverable + 1;
    t.r_undeliverable <- t.r_undeliverable + 1);
  (if status <> Undeliverable && dist > 0.0 then begin
     let stretch = cost /. dist in
     Qsketch.add w.w_stretch stretch;
     Qsketch.add t.r_stretch stretch;
     Qsketch.add w.w_hops (float_of_int hops);
     Qsketch.add w.w_latency cost
   end);
  Topk.add w.w_dst dst;
  Topk.add w.w_src src;
  Topk.add t.r_dst dst;
  Topk.add t.r_src src

let bump tbl key =
  let c =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
      let c = { n = 0 } in
      Hashtbl.add tbl key c;
      c
  in
  c.n <- c.n + 1;
  c.n

let record_edge_enabled t ~src ~dst =
  if
    src >= 0 && dst >= 0 && src <> dst && src < id_limit && dst < id_limit
  then begin
    let key = if src < dst then (src, dst) else (dst, src) in
    let w = current t in
    let wn = bump w.w_edges key in
    w.w_edge_messages <- w.w_edge_messages + 1;
    if wn > w.w_util_max then w.w_util_max <- wn;
    if wn > t.r_util_max then t.r_util_max <- wn;
    ignore (bump t.r_edges key : int);
    t.r_edge_messages <- t.r_edge_messages + 1;
    Topk.add w.w_edge ((fst key lsl 20) lor snd key)
  end

(* The disabled accumulator sits on every routed-message hot path, so
   the off branch must cost one load and one test — the zero-alloc
   proofs pin that down; all bookkeeping lives behind the guard. *)
let[@cr.zero_alloc] tick t =
  if t.on then
    (tick_enabled t
    [@cr.alloc_ok "window rotation allocates fresh sketch state by \
                   design; the hot default is a disabled accumulator"])

let[@cr.zero_alloc] record t ~src ~dst ~status ~dist ~cost ~hops =
  if t.on then
    (record_enabled t ~src ~dst ~status ~dist ~cost ~hops
    [@cr.alloc_ok "enabled-path telemetry feeds sketches and tables by \
                   design; the hot default is a disabled accumulator"])

let[@cr.zero_alloc] record_edge t ~src ~dst =
  if t.on then
    (record_edge_enabled t ~src ~dst
    [@cr.alloc_ok "enabled-path telemetry feeds utilization tables by \
                   design; the hot default is a disabled accumulator"])

let rate ~routes ~arrived =
  if routes = 0 then 1.0 else float_of_int arrived /. float_of_int routes

let hot_of (e : Topk.entry) =
  { hot_key = e.Topk.key; hot_count = e.Topk.count; hot_err = e.Topk.err }

let hot_edge_of (e : Topk.entry) =
  { he_u = e.Topk.key lsr 20;
    he_v = e.Topk.key land (id_limit - 1);
    he_count = e.Topk.count;
    he_err = e.Topk.err }

let qmax sk = if Qsketch.count sk = 0 then 0.0 else Qsketch.max_value sk

let stats_of t w =
  { ws_index = w.w_index;
    ws_routes = w.w_routes;
    ws_delivered = w.w_delivered;
    ws_rerouted = w.w_rerouted;
    ws_undeliverable = w.w_undeliverable;
    ws_delivery_rate =
      rate ~routes:w.w_routes ~arrived:(w.w_delivered + w.w_rerouted);
    ws_stretch_p50 = Qsketch.quantile w.w_stretch 0.50;
    ws_stretch_p95 = Qsketch.quantile w.w_stretch 0.95;
    ws_stretch_p99 = Qsketch.quantile w.w_stretch 0.99;
    ws_stretch_max = qmax w.w_stretch;
    ws_hops_p50 = Qsketch.quantile w.w_hops 0.50;
    ws_hops_p99 = Qsketch.quantile w.w_hops 0.99;
    ws_latency_p50 = Qsketch.quantile w.w_latency 0.50;
    ws_latency_p99 = Qsketch.quantile w.w_latency 0.99;
    ws_edge_messages = w.w_edge_messages;
    ws_util_max = w.w_util_max;
    ws_edges_touched = Hashtbl.length w.w_edges;
    ws_top_edges = List.map hot_edge_of (Topk.top w.w_edge ~k:t.k);
    ws_top_dsts = List.map hot_of (Topk.top w.w_dst ~k:t.k);
    ws_top_srcs = List.map hot_of (Topk.top w.w_src ~k:t.k) }

let windows t =
  Array.to_list t.ring
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> Int.compare a.w_index b.w_index)
  |> List.map (stats_of t)

let totals t =
  { t_routes = t.r_routes;
    t_delivered = t.r_delivered;
    t_rerouted = t.r_rerouted;
    t_undeliverable = t.r_undeliverable;
    t_delivery_rate =
      rate ~routes:t.r_routes ~arrived:(t.r_delivered + t.r_rerouted);
    t_stretch_p50 = Qsketch.quantile t.r_stretch 0.50;
    t_stretch_p95 = Qsketch.quantile t.r_stretch 0.95;
    t_stretch_p99 = Qsketch.quantile t.r_stretch 0.99;
    t_stretch_max = qmax t.r_stretch;
    t_edge_messages = t.r_edge_messages;
    t_util_max = t.r_util_max }

let cmp_uv a b =
  match Int.compare a.u b.u with 0 -> Int.compare a.v b.v | c -> c

let edge_totals t =
  Hashtbl.fold
    (fun (u, v) c acc -> { u; v; messages = c.n } :: acc)
    t.r_edges []
  |> List.sort cmp_uv

let hot_edges t =
  let by_load a b =
    match Int.compare b.messages a.messages with
    | 0 -> cmp_uv a b
    | c -> c
  in
  Hashtbl.fold
    (fun (u, v) c acc -> { u; v; messages = c.n } :: acc)
    t.r_edges []
  |> List.sort by_load
  |> List.filteri (fun i _ -> i < t.k)

let hot_dsts t = List.map hot_of (Topk.top t.r_dst ~k:t.k)
let hot_srcs t = List.map hot_of (Topk.top t.r_src ~k:t.k)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "live telemetry: clock=%d window=%d depth=%d k=%d evicted=%d\n"
       t.clock t.window t.depth t.k t.n_evicted);
  Buffer.add_string buf
    (Printf.sprintf "%6s %7s %7s %5s %6s %6s %8s %8s %8s %6s %6s\n" "window"
       "routes" "deliv" "rer" "undel" "rate" "str.p50" "str.p95" "str.p99"
       "util" "edges");
  List.iter
    (fun ws ->
      Buffer.add_string buf
        (Printf.sprintf
           "%6d %7d %7d %5d %6d %6.3f %8.3f %8.3f %8.3f %6d %6d\n" ws.ws_index
           ws.ws_routes ws.ws_delivered ws.ws_rerouted ws.ws_undeliverable
           ws.ws_delivery_rate ws.ws_stretch_p50 ws.ws_stretch_p95
           ws.ws_stretch_p99 ws.ws_util_max ws.ws_edges_touched))
    (windows t);
  let s = totals t in
  Buffer.add_string buf
    (Printf.sprintf "%6s %7d %7d %5d %6d %6.3f %8.3f %8.3f %8.3f %6d %6d\n"
       "TOTAL" s.t_routes s.t_delivered s.t_rerouted s.t_undeliverable
       s.t_delivery_rate s.t_stretch_p50 s.t_stretch_p95 s.t_stretch_p99
       s.t_util_max
       (Hashtbl.length t.r_edges));
  Buffer.add_string buf "hot destinations:";
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf " %d:%d(err<=%d)" h.hot_key h.hot_count h.hot_err))
    (hot_dsts t);
  Buffer.add_string buf "\nhot sources:";
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf " %d:%d(err<=%d)" h.hot_key h.hot_count h.hot_err))
    (hot_srcs t);
  Buffer.add_string buf "\nhot edges:";
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf " %d-%d:%d" e.u e.v e.messages))
    (hot_edges t);
  Buffer.add_char buf '\n';
  Buffer.contents buf
