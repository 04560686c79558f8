module Graph = Cr_metric.Graph

type node_state = {
  best : float;
  via : int;
}

(* Offer (d, from): "you can reach the root at cost d via me". *)
type msg = Offer of float * int

type result = {
  dist : float array;
  pred : int array;
  stats : Network.stats;
}

(* CONGEST message size: a distance plus an optional predecessor id. *)
let measure g =
  let u = Wire.universe (Graph.n g) in
  fun (Offer (d, from)) -> Wire.float d + Wire.opt_node u from

let run ?via g ~root =
  let n = Graph.n g in
  let max_messages = 1000 + (100 * n * n) in
  let runner = match via with Some r -> r | None -> Network.local () in
  let init v =
    if v = root then { best = 0.0; via = -1 }
    else { best = infinity; via = -1 }
  in
  let announce (actions : msg Network.actions) self d =
    Graph.iter_neighbors g self (fun v w ->
        actions.Network.send v (Offer (d +. w, self)))
  in
  let handler actions ~self state = function
    | Offer (0.0, -1) when self = root ->
      (* kick-off: the root offers itself distance 0 (self-delivered); a
         duplicate delivery re-announces the same offers, which no
         neighbor can improve on — idempotent under at-least-once
         transports *)
      announce actions self 0.0;
      state
    | Offer (d, from) ->
      if d < state.best then begin
        announce actions self d;
        { best = d; via = from }
      end
      else if d = state.best && from >= 0 && from < state.via then
        (* confluent tie-break: among equal-cost predecessors keep the
           least id, so the final tree is a pure function of the metric —
           independent of delivery order, and hence identical under
           jitter, duplication, and retransmission. The announcement
           carries no predecessor, so no re-flood is needed. *)
        { state with via = from }
      else state
  in
  let states, stats =
    runner.Network.execute ~measure:(measure g) g ~protocol:"dist_spt" ~init
      ~handler
      ~kickoff:[ (root, Offer (0.0, -1)) ]
      ~max_messages
  in
  { dist = Array.map (fun s -> s.best) states;
    pred = Array.map (fun s -> s.via) states;
    stats }
