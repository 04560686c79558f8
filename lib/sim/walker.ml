module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Trace = Cr_obs.Trace
module Cost = Cr_obs.Cost
module Live = Cr_obs.Live

exception Hop_budget_exhausted

exception Blocked of { src : int; dst : int }

type mover = {
  position : unit -> int;
  cost : unit -> float;
  step : int -> unit;
  jump : int -> float -> unit;
  path : int -> unit;
  phase : 'a. Trace.phase -> (unit -> 'a) -> 'a;
}

type t = {
  metric : Metric.t;
  mutable position : int;
  mutable cost : float;
  mutable hops : int;
  mutable trail : int list;  (* visited nodes, most recent first *)
  max_hops : int;
  obs : Trace.context;
  mutable phase : Trace.phase;
  failures : Failures.t;
  acct : Cost.t;  (* per-edge routed-traffic accounting *)
  hop_bits : int;  (* bits charged per forwarded packet *)
  live : Live.t;  (* streaming per-window edge telemetry *)
  mutable mover : mover option;
}

let create ?obs ?(failures = Failures.none) ?(cost = Cost.null)
    ?(hop_bits = 0) ?(live = Live.null) m ~start ~max_hops =
  if start < 0 || start >= Metric.n m then
    invalid_arg "Walker.create: start out of range";
  if Failures.node_failed failures start then
    invalid_arg "Walker.create: start node is failed";
  if hop_bits < 0 then invalid_arg "Walker.create: negative hop_bits";
  { metric = m; position = start; cost = 0.0; hops = 0; trail = [ start ];
    max_hops; obs = Trace.resolve obs; phase = Trace.Unphased; failures;
    acct = cost; hop_bits; live; mover = None }

let position w = w.position
let cost w = w.cost
let hops w = w.hops
let obs w = w.obs

let phase w = w.phase
let set_phase w p = w.phase <- p

(* Outer-wins phase scoping: a scheme running as a subroutine of another
   (an underlying labeled scheme inside a name-independent search) must not
   re-tag hops the outer scheme already attributed — so the phase applies
   only when entering from [Unphased]. *)
let with_phase w p f =
  if w.phase <> Trace.Unphased then f ()
  else begin
    w.phase <- p;
    Fun.protect ~finally:(fun () -> w.phase <- Trace.Unphased) f
  end

let spend w =
  w.hops <- w.hops + 1;
  if w.hops > w.max_hops then raise Hop_budget_exhausted

(* Failures are discovered on contact: the packet stays where it is (no
   cost, no hop spent) and the scheme decides how to reroute. *)
let check_move w v =
  if
    Failures.edge_failed w.failures w.position v
    || Failures.node_failed w.failures v
  then raise (Blocked { src = w.position; dst = v })

let step w v =
  match Graph.edge_weight (Metric.graph w.metric) w.position v with
  | None -> invalid_arg "Walker.step: not a neighbor"
  | Some weight ->
    check_move w v;
    spend w;
    let src = w.position in
    w.position <- v;
    w.trail <- v :: w.trail;
    w.cost <- w.cost +. weight;
    if Trace.enabled w.obs then
      Trace.hop w.obs ~kind:Trace.Edge ~src ~dst:v ~cost:weight ~total:w.cost
        ~phase:w.phase;
    if Cost.enabled w.acct then
      (* same accounting as the protocol simulator: one message on the
         traversed edge, round = hop index, phase = the route phase *)
      Cost.record w.acct ~phase:(Trace.phase_label w.phase) ~src ~dst:v
        ~round:(w.hops - 1) ~bits:w.hop_bits;
    if Live.enabled w.live then
      (* the same edge charge, into the current telemetry window; the
         route lifecycle (tick + outcome) belongs to the caller *)
      Live.record_edge w.live ~src ~dst:v

let walk_shortest_path w dst =
  if dst <> w.position then
    let path = Metric.shortest_path w.metric ~src:w.position ~dst in
    match path with
    | [] | [ _ ] -> ()
    | _ :: rest -> List.iter (fun v -> step w v) rest

let charge w c =
  if c < 0.0 then invalid_arg "Walker.charge: negative cost";
  spend w;
  w.cost <- w.cost +. c;
  if Trace.enabled w.obs then
    Trace.hop w.obs ~kind:Trace.Virtual ~src:w.position ~dst:w.position
      ~cost:c ~total:w.cost ~phase:w.phase

let teleport w v ~cost =
  if cost < 0.0 then invalid_arg "Walker.teleport: negative cost";
  if Failures.node_failed w.failures v then
    raise (Blocked { src = w.position; dst = v });
  spend w;
  let src = w.position in
  w.position <- v;
  w.trail <- v :: w.trail;
  w.cost <- w.cost +. cost;
  (if Trace.enabled w.obs then
     let phase = if w.phase = Trace.Unphased then Trace.Teleport else w.phase in
     Trace.hop w.obs ~kind:Trace.Jump ~src ~dst:v ~cost ~total:w.cost ~phase);
  if Cost.enabled w.acct then
    (* a teleport is out-of-band traffic: charge the phase totals but no
       graph edge *)
    let phase =
      if w.phase = Trace.Unphased then Trace.Teleport else w.phase
    in
    Cost.record w.acct ~phase:(Trace.phase_label phase) ~src:(-1) ~dst:v
      ~round:(w.hops - 1) ~bits:w.hop_bits

let trail w = List.rev w.trail

let labeled_budget n = 10_000 + (100 * n)
let ni_budget n = 50_000 + (200 * n)

(* Built on a walker's first use and kept: a routing loop layered on
   another (an underlying labeled route per name-independent leg) asks
   for the mover once per leg. *)
let mover w =
  match w.mover with
  | Some mv -> mv
  | None ->
    let mv =
      { position = (fun () -> position w);
        cost = (fun () -> cost w);
        step = (fun v -> step w v);
        jump = (fun v c -> teleport w v ~cost:c);
        path = (fun v -> walk_shortest_path w v);
        phase = (fun p f -> with_phase w p f) }
    in
    w.mover <- Some mv;
    mv
