module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Trace = Cr_obs.Trace
module Cost = Cr_obs.Cost
module Live = Cr_obs.Live

exception Hop_budget_exhausted

exception Blocked of { src : int; dst : int }

(* The running cost lives in an all-float record, whose field is stored
   unboxed: adding a hop's weight to it allocates nothing. *)
type total = { mutable sum : float }

type t = {
  metric : Metric.t;
  mutable position : int;
  total : total;
  mutable hops : int;
  max_hops : int;
  obs : Trace.context;
  mutable phase : Trace.phase;
  failures : Failures.t;
  intact : bool;  (* [failures] is empty: no move can be blocked *)
  acct : Cost.t;  (* per-edge routed-traffic accounting *)
  live : Live.t;  (* streaming per-window edge telemetry *)
}

let create ?obs ?(failures = Failures.none) ?(cost = Cost.null)
    ?(live = Live.null) m ~start ~max_hops =
  if start < 0 || start >= Metric.n m then
    invalid_arg "Walker.create: start out of range";
  if Failures.node_failed failures start then
    invalid_arg "Walker.create: start node is failed";
  { metric = m; position = start; total = { sum = 0.0 }; hops = 0;
    max_hops; obs = Trace.resolve obs; phase = Trace.Unphased; failures;
    intact = Failures.is_empty failures; acct = cost; live }

let position w = w.position
let cost w = w.total.sum
let hops w = w.hops

let phase w = w.phase

(* Outer-wins phase scoping: a scheme running as a subroutine of another
   (an underlying labeled scheme inside a name-independent search) must not
   re-tag hops the outer scheme already attributed — so the phase applies
   only when entering from [Unphased]. The phase is restored on an
   exception too (the hop budget running out mid-phase). *)
let with_phase w p f =
  match w.phase with
  | Trace.Unphased -> (
    w.phase <- p;
    match f () with
    | x ->
      w.phase <- Trace.Unphased;
      x
    | exception e ->
      w.phase <- Trace.Unphased;
      raise e)
  | _ -> f ()

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
  let g = Metric.graph w.metric and src = w.position in
  let s = Graph.slot g src v in
  if s < 0 then invalid_arg "Walker.step: not a neighbor";
  if not w.intact then check_move w v;
  spend w;
  let weight = (Graph.row_weights g src).(s) in
  w.position <- v;
  w.total.sum <- w.total.sum +. weight;
  if Trace.enabled w.obs then
    Trace.hop w.obs ~kind:Trace.Edge ~src ~dst:v ~cost:weight
      ~total:w.total.sum ~phase:w.phase;
  if Cost.enabled w.acct then
    (* same accounting as the protocol simulator: one message on the
       traversed edge, round = hop index, phase = the route phase *)
    Cost.record w.acct ~phase:(Trace.phase_label w.phase) ~src ~dst:v
      ~round:(w.hops - 1) ~bits:0;
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

let teleport w v ~cost =
  if cost < 0.0 then invalid_arg "Walker.teleport: negative cost";
  if (not w.intact) && Failures.node_failed w.failures v then
    raise (Blocked { src = w.position; dst = v });
  spend w;
  let src = w.position in
  w.position <- v;
  w.total.sum <- w.total.sum +. cost;
  (* a teleport outside any phase is tagged [Teleport] *)
  let phase =
    match w.phase with Trace.Unphased -> Trace.Teleport | p -> p
  in
  if Trace.enabled w.obs then
    Trace.hop w.obs ~kind:Trace.Jump ~src ~dst:v ~cost ~total:w.total.sum
      ~phase;
  if Cost.enabled w.acct then
    (* a teleport is out-of-band traffic: charge the phase totals but no
       graph edge *)
    Cost.record w.acct ~phase:(Trace.phase_label phase) ~src:(-1) ~dst:v
      ~round:(w.hops - 1) ~bits:0

let labeled_budget n = 10_000 + (100 * n)
let ni_budget n = 50_000 + (200 * n)
