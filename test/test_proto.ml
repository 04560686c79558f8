(* Tests for the message-passing substrate: the event simulator, the
   distributed shortest-path protocol, and the distributed r-net election
   (checked for exact agreement with the centralized constructions). *)

open Helpers
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Dijkstra = Cr_metric.Dijkstra
module Rnet = Cr_nets.Rnet
module Network = Cr_proto.Network
module Dist_spt = Cr_proto.Dist_spt
module Net_election = Cr_proto.Net_election

let test_network_delivery_delay () =
  (* a token relayed along a weighted path arrives at the sum of weights *)
  let g = graph_of_edges 3 [ (0, 1, 2.5); (1, 2, 4.0) ] in
  let net = Network.create g ~init:(fun _ -> nan) in
  let handler (actions : int Network.actions) ~self state _hops =
    if self < 2 then actions.Network.send (self + 1) 0;
    ignore state;
    actions.Network.now
  in
  Network.inject net ~dst:0 0;
  let stats = Network.run net ~handler ~max_messages:100 in
  check_int "messages" 3 stats.Network.messages;
  check_float "arrival time" 6.5 (Network.state net 2);
  check_float "makespan" 6.5 stats.Network.makespan

let test_network_rejects_non_neighbor () =
  let g = graph_of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let net = Network.create g ~init:(fun _ -> ()) in
  let handler (actions : unit Network.actions) ~self:_ state () =
    actions.Network.send 2 ();  (* 0 -> 2 is not an edge *)
    state
  in
  Network.inject net ~dst:0 ();
  Alcotest.check_raises "non-neighbor"
    (Invalid_argument "Network.send: not a neighbor") (fun () ->
      ignore (Network.run net ~handler ~max_messages:10))

let test_network_budget () =
  (* Two nodes bouncing a ball: a run of exactly [max_messages] events
     completes; one more raises the typed error carrying the protocol
     name and the statistics at the point of failure. *)
  let g = graph_of_edges 2 [ (0, 1, 1.0) ] in
  let bounce sends max_messages =
    let left = ref sends in
    let net = Network.create g ~init:(fun _ -> ()) in
    let handler (actions : unit Network.actions) ~self state () =
      if !left > 0 then begin
        decr left;
        actions.Network.send (1 - self) ()
      end;
      state
    in
    Network.inject net ~dst:0 ();
    Network.run net ~protocol:"bounce" ~handler ~max_messages
  in
  (* the inject plus 49 sends is 50 deliveries: exactly at the budget *)
  let stats = bounce 49 50 in
  check_int "boundary run completes" 50 stats.Network.messages;
  (* one send past the budget must fail, and fail typed *)
  match bounce 50 50 with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception Network.Protocol_error err ->
    Alcotest.(check string) "protocol name" "bounce" err.Network.protocol;
    (* the diagnostics include the event that breached the budget *)
    check_int "stats include the breaching event" 51
      err.Network.stats.Network.messages;
    check_bool "human rendering mentions protocol" true
      (String.length (Network.error_message err) > 0)

let test_inject_interleaves_in_flight () =
  (* Regression for the mid-run inject tie-break: an inject that lands at
     the same simulation time as in-flight deliveries is ordered by the
     shared enqueue counter — time first, then send order — not ahead of
     or behind the whole batch. *)
  let g = graph_of_edges 2 [ (0, 1, 1.0) ] in
  let log = ref [] in
  let net = Network.create g ~init:(fun _ -> ()) in
  let handler (actions : string Network.actions) ~self state msg =
    log := (msg, self, actions.Network.now) :: !log;
    (match msg with
    | "start" ->
      (* ping arrives at node 1 at t=1; tick fires at node 0 at t=1 *)
      actions.Network.send 1 "ping";
      actions.Network.timer ~delay:1.0 "tick"
    | "ping" ->
      (* external input racing the already-scheduled tick at t=1 *)
      Network.inject net ~dst:0 "ext"
    | _ -> ());
    state
  in
  Network.inject net ~dst:0 "start";
  ignore (Network.run net ~handler ~max_messages:10);
  Alcotest.(check (list string)) "time first, then enqueue order"
    [ "start"; "ping"; "tick"; "ext" ]
    (List.rev_map (fun (m, _, _) -> m) !log);
  List.iter
    (fun (msg, _, now) ->
      check_float
        (Printf.sprintf "%s delivered at its scheduled time" msg)
        (if msg = "start" then 0.0 else 1.0)
        now)
    !log

(* The simulator's own cost per delivery: a unit payload relayed around a
   64-node ring with [Cost.null] and a handler that allocates nothing.
   What is left is the event heap's payload cell and the boxed
   [actions.now] (4 words); the bound leaves room for a compiler that
   boxes a float argument or two. *)
let relay_words_per_delivery ?jitter () =
  let n = 64 and deliveries = 20_000 in
  let net =
    Network.create ?jitter (Cr_graphgen.Path_like.ring ~n) ~init:(fun _ -> ())
  in
  let left = ref deliveries in
  let handler (actions : unit Network.actions) ~self () () =
    if !left > 1 then begin
      decr left;
      actions.Network.send ((self + 1) mod n) ()
    end
  in
  Network.inject net ~dst:0 ();
  let before = Gc.minor_words () in
  let stats = Network.run net ~handler ~max_messages:deliveries in
  let after = Gc.minor_words () in
  check_int "every relay delivered" deliveries stats.Network.messages;
  (after -. before) /. float_of_int deliveries

let test_relay_allocation () =
  List.iter
    (fun (label, jitter) ->
      let words = relay_words_per_delivery ?jitter () in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per delivery <= 8" label words)
        true (words <= 8.0))
    [ ("no jitter", None); ("jitter", Some (3, 0.5)) ]

(* The event heap's order, seen through delivery: each delivery must be
   the least pending (time, seq) of a model that stamps every enqueue —
   inject, timer or send — with the next sequence number. Each delivery
   enqueues the next scripted batch, so pushes and pops interleave, and
   delays drawn from {0, 0.5, 1, 2} make equal times common. *)
let prop_delivery_order_is_sorted =
  qcheck_case ~count:200 "network: delivery order = sorted (time, seq) model"
    QCheck2.Gen.(
      let op = pair (int_range 0 2) (oneofl [ 0.0; 0.5; 1.0; 2.0 ]) in
      let* kicks = int_range 1 4 in
      let* script = list_size (int_range 0 80) (list_size (int_range 0 3) op) in
      return (kicks, script))
    (fun (kicks, script) ->
      let g = graph_of_edges 3 [ (0, 1, 1.0); (1, 2, 0.5) ] in
      let net = Network.create g ~init:(fun _ -> ()) in
      let pending = ref [] and seq = ref 0 and ok = ref true in
      let stamp ~time ~dst =
        let id = !seq in
        pending := (time, id, dst) :: !pending;
        incr seq;
        id
      in
      let script = ref script in
      let handler (actions : int Network.actions) ~self () id =
        let now = actions.Network.now in
        (match List.sort compare !pending with
        | (time, least, dst) :: rest ->
          if least <> id || dst <> self || time <> now then ok := false;
          pending := rest
        | [] -> ok := false);
        match !script with
        | [] -> ()
        | batch :: more ->
          script := more;
          List.iter
            (fun (kind, delay) ->
              match kind with
              | 0 ->
                actions.Network.timer ~delay
                  (stamp ~time:(now +. delay) ~dst:self)
              | 1 ->
                let v = if self = 1 then 2 * (int_of_float delay mod 2) else 1 in
                let w = Option.get (Graph.edge_weight g self v) in
                actions.Network.send v (stamp ~time:(now +. w) ~dst:v)
              | _ ->
                let v = int_of_float (2.0 *. delay) mod 3 in
                Network.inject net ~dst:v (stamp ~time:now ~dst:v))
            batch
      in
      for k = 0 to kicks - 1 do
        Network.inject net ~dst:(k mod 3) (stamp ~time:0.0 ~dst:(k mod 3))
      done;
      let stats = Network.run net ~handler ~max_messages:10_000 in
      !ok && !pending = []
      && stats.Network.messages + Network.timer_events net = !seq)

(* A delivered message must not stay reachable from the event heap: its
   vacated slot is overwritten. Sixty-four payloads flood a star at once,
   so the heap grows and then drains; after the run (the network itself
   still alive) every payload must be collectable. *)
let test_delivered_payloads_released () =
  let leaves = 63 in
  let g = Cr_graphgen.Path_like.star ~leaves in
  let net = Network.create g ~init:(fun _ -> 0) in
  let seen = Weak.create (leaves + 1) in
  let handler (actions : int ref Network.actions) ~self count msg =
    if self = 0 && !msg = 0 then
      for v = 1 to leaves do
        let payload = ref v in
        Weak.set seen v (Some payload);
        actions.Network.send v payload
      done;
    count + 1
  in
  let kick = ref 0 in
  Weak.set seen 0 (Some kick);
  Network.inject net ~dst:0 kick;
  ignore (Network.run net ~handler ~max_messages:1_000);
  Gc.full_major ();
  let kept = ref 0 in
  for i = 0 to leaves do
    if Weak.check seen i then incr kept
  done;
  check_int "payloads still reachable" 0 !kept;
  check_int "network alive, leaves served" 1 (Network.state net leaves)

(* Rounds are floor(delivery time). The cost ledger's round histogram
   must equal a reference built from the handler's own delivery times
   (Dist_spt arms no timers, so every call is a delivery) on a unit grid,
   where many deliveries share a round, and on a chain with weights 2^i,
   where rounds pass 2^47: it must be kept per distinct round, never in
   an array indexed by round. *)
let spt_rounds g =
  let times = ref [] in
  let cost = Cr_obs.Cost.create () in
  let via =
    { Network.execute =
        (fun ?measure g ~protocol ~init ~handler ~kickoff ~max_messages ->
          let net = Network.create ~cost ?measure g ~init in
          List.iter (fun (dst, msg) -> Network.inject net ~dst msg) kickoff;
          let handler actions ~self state msg =
            times := actions.Network.now :: !times;
            handler actions ~self state msg
          in
          let stats = Network.run ~protocol net ~handler ~max_messages in
          (Array.init (Graph.n g) (Network.state net), stats)) }
  in
  let result = Dist_spt.run ~via g ~root:0 in
  let reference =
    List.fold_left
      (fun acc time ->
        let r = int_of_float (Float.floor time) in
        match List.assoc_opt r acc with
        | Some c -> (r, c + 1) :: List.remove_assoc r acc
        | None -> (r, 1) :: acc)
      [] !times
    |> List.sort compare
  in
  check_int "deliveries" result.Dist_spt.stats.Network.messages
    (List.length !times);
  let histogram =
    match Cr_obs.Cost.phases cost with
    | [ p ] -> p.Cr_obs.Cost.round_histogram
    | ps -> Alcotest.failf "expected one phase, got %d" (List.length ps)
  in
  Alcotest.(check (list (pair int int)))
    "round histogram = floor(delivery time) counts" reference histogram;
  (result, histogram)

let test_round_histogram () =
  let _, grid = spt_rounds (Metric.graph (grid6 ())) in
  check_bool "grid rounds repeat" true (List.exists (fun (_, c) -> c > 1) grid);
  let chain, rounds =
    spt_rounds (Cr_graphgen.Path_like.exponential_chain ~n:48 ~base:2.0)
  in
  check_float "far end at 2^47 - 1" (Float.pow 2.0 47.0 -. 1.0)
    chain.Dist_spt.dist.(47);
  (* the last delivery is the far end's offer back across the 2^46 edge *)
  check_int "last round" ((3 lsl 46) - 1) (fst (List.hd (List.rev rounds)))

let check_spt_matches m root =
  let g = Metric.graph m in
  let result = Dist_spt.run g ~root in
  let reference = Dijkstra.run g root in
  for v = 0 to Graph.n g - 1 do
    check_bool
      (Printf.sprintf "distributed dist matches at %d" v)
      true
      (Float.abs (result.Dist_spt.dist.(v) -. reference.Dijkstra.dist.(v))
      < 1e-9);
    (* predecessor yields a valid shortest path even if tie-broken
       differently *)
    if v <> root then begin
      let p = result.Dist_spt.pred.(v) in
      let w = Option.get (Graph.edge_weight g v p) in
      check_bool "pred on a shortest path" true
        (Float.abs (reference.Dijkstra.dist.(p) +. w
                    -. reference.Dijkstra.dist.(v))
        < 1e-9)
    end
  done

let test_dist_spt_grid () = check_spt_matches (grid6 ()) 0
let test_dist_spt_holey () = check_spt_matches (holey ()) 5
let test_dist_spt_expo () = check_spt_matches (expo12 ()) 3

let check_election_matches m r =
  let g = Metric.graph m in
  let result = Net_election.run g ~r in
  let all = List.init (Metric.n m) Fun.id in
  let reference = Rnet.greedy m ~r ~candidates:all ~seed:[] in
  Alcotest.(check (list int))
    (Printf.sprintf "election = greedy at r=%g" r)
    reference result.Net_election.net;
  (* coverage invariant from the decision floods *)
  List.iter
    (fun v ->
      if result.Net_election.status.(v) = Net_election.Out then
        match result.Net_election.nearest_in.(v) with
        | Some (o, d) ->
          check_bool "nearest In within r" true
            (d < r && List.mem o result.Net_election.net);
          check_bool "distance consistent" true
            (Metric.dist m v o <= d +. 1e-9)
        | None -> Alcotest.fail "Out node heard no In decision")
    all

let test_election_grid () =
  List.iter (fun r -> check_election_matches (grid6 ()) r) [ 1.5; 2.0; 4.0 ]

let test_election_holey () = check_election_matches (holey ()) 3.0
let test_election_ring () = check_election_matches (ring16 ()) 2.5

let test_election_message_counts_positive () =
  let m = grid6 () in
  let result = Net_election.run (Metric.graph m) ~r:2.0 in
  check_bool "discovery messages" true
    (result.Net_election.discovery.Network.messages > 0);
  check_bool "election messages" true
    (result.Net_election.election.Network.messages > 0)

let prop_election_equals_greedy =
  qcheck_case ~count:15 "election = greedy on random graphs"
    QCheck2.Gen.(
      let* n = int_range 6 30 in
      let* seed = int_range 0 3_000 in
      let* r = float_range 0.5 4.0 in
      return (n, seed, r))
    (fun (n, seed, r) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let result = Net_election.run (Metric.graph m) ~r in
      let reference =
        Rnet.greedy m ~r ~candidates:(List.init n Fun.id) ~seed:[]
      in
      result.Net_election.net = reference)

let prop_dist_spt_equals_dijkstra =
  qcheck_case ~count:15 "distributed SPT = Dijkstra on random graphs"
    QCheck2.Gen.(
      let* n = int_range 4 30 in
      let* seed = int_range 0 3_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let g = Metric.graph m in
      let result = Dist_spt.run g ~root:0 in
      let reference = Dijkstra.run g 0 in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) < 1e-9)
        result.Dist_spt.dist reference.Dijkstra.dist)

let test_seeded_election () =
  (* seeds block neighbors regardless of id, like greedy-with-seed *)
  let m = grid6 () in
  let g = Metric.graph m in
  let seeds = [ 14; 21 ] in
  let result = Net_election.run g ~r:2.0 ~seeds in
  let reference =
    Rnet.greedy m ~r:2.0 ~candidates:(List.init (Metric.n m) Fun.id) ~seed:seeds
  in
  Alcotest.(check (list int)) "seeded election = seeded greedy" reference
    result.Net_election.net;
  List.iter
    (fun s -> check_bool "seed elected" true (List.mem s result.Net_election.net))
    seeds

let check_hierarchy_matches m =
  let centralized = Cr_nets.Hierarchy.build m in
  let distributed = Cr_proto.Dist_hierarchy.build m in
  for i = 0 to Metric.levels m do
    Alcotest.(check (list int))
      (Printf.sprintf "level %d nets equal" i)
      (Cr_nets.Hierarchy.net centralized i)
      distributed.Cr_proto.Dist_hierarchy.nets.(i)
  done;
  check_bool "messages counted" true
    (distributed.Cr_proto.Dist_hierarchy.total_messages > 0)

let test_dist_hierarchy_grid () = check_hierarchy_matches (grid6 ())
let test_dist_hierarchy_ring () = check_hierarchy_matches (ring16 ())
let test_dist_hierarchy_expo () = check_hierarchy_matches (expo12 ())

let check_netting_parents_match m =
  let h = Cr_nets.Hierarchy.build m in
  let nt = Cr_nets.Netting_tree.build h in
  let parents, stats = dist_netting_parents m in
  for i = 0 to Cr_nets.Hierarchy.top_level h - 1 do
    List.iter
      (fun x ->
        check_int
          (Printf.sprintf "parent of (%d, level %d)" x i)
          (Cr_nets.Netting_tree.parent nt ~level:i x)
          parents.(i).(x))
      (Cr_nets.Hierarchy.net h i)
  done;
  check_bool "messages counted" true (stats.Network.messages > 0)

let test_dist_netting_grid () = check_netting_parents_match (grid6 ())
let test_dist_netting_holey () = check_netting_parents_match (holey ())
let test_dist_netting_expo () = check_netting_parents_match (expo12 ())

(* ---- distributed radii and ball packing ---- *)

let test_dist_radii_matches_metric () =
  let m = holey () in
  let r = Cr_proto.Dist_radii.run (Metric.graph m) in
  let n = Metric.n m in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      check_bool "distance matches" true
        (Float.abs (r.Cr_proto.Dist_radii.distances.(u).(v) -. Metric.dist m u v)
        < 1e-9)
    done;
    List.iter
      (fun j ->
        if 1 lsl j <= n then
          check_bool "radius matches" true
            (Float.abs
               (Cr_proto.Dist_radii.radius_of_size
                  r.Cr_proto.Dist_radii.distances u (1 lsl j)
               -. Metric.radius_of_size m u (1 lsl j))
            < 1e-9))
      [ 0; 1; 2; 3; 4 ]
  done

(* The centralized greedy over metric balls: ascending (r, id), accept
   when disjoint from every accepted ball. Parameterized by the distance
   oracle so it can run over either the exact metric or the protocol's own
   flood measurements (directional float sums can differ from the
   symmetrized metric by an ulp exactly at ball boundaries). *)
let ball_greedy ~n ~dist j =
  let radius u =
    let row = Array.init n (dist u) in
    Array.sort compare row;
    row.((1 lsl j) - 1)
  in
  let order =
    List.sort
      (fun a b -> compare (radius a, a) (radius b, b))
      (List.init n Fun.id)
  in
  let accepted = ref [] in
  let ball u =
    List.filter (fun x -> dist u x <= radius u) (List.init n Fun.id)
  in
  List.iter
    (fun u ->
      let mine = ball u in
      let clash =
        List.exists
          (fun c -> List.exists (fun x -> List.mem x (ball c)) mine)
          !accepted
      in
      if not clash then accepted := u :: !accepted)
    order;
  List.sort compare !accepted

let metric_ball_greedy m j =
  ball_greedy ~n:(Metric.n m) ~dist:(Metric.dist m) j

let flood_ball_greedy distances j =
  ball_greedy ~n:(Array.length distances)
    ~dist:(fun u x -> distances.(u).(x))
    j

let check_packing_matches m j =
  let g = Metric.graph m in
  let radii = Cr_proto.Dist_radii.run g in
  let result =
    Cr_proto.Dist_packing.run g
      ~distances:radii.Cr_proto.Dist_radii.distances ~j
  in
  (* on these unit/exact-weight fixtures flood distances equal the metric *)
  Alcotest.(check (list int))
    (Printf.sprintf "distributed packing = greedy at j=%d" j)
    (metric_ball_greedy m j)
    result.Cr_proto.Dist_packing.accepted

let test_dist_packing_grid () =
  List.iter (fun j -> check_packing_matches (grid6 ()) j) [ 0; 1; 2; 3 ]

let test_dist_packing_ring () = check_packing_matches (ring16 ()) 2
let test_dist_packing_expo () = check_packing_matches (expo12 ()) 2

(* Integer-weight random graphs: float sums are exact, so path sums agree
   in both directions and the distributed/centralized comparison is sharp.
   (On irrational weights the two directions of a path can differ by an
   ulp, flipping exact ball-boundary membership — a float artifact, not a
   protocol property.) *)
let int_weight_graph n seed =
  let rng = Cr_graphgen.Rng.create seed in
  let g = Graph.create n in
  for v = 1 to n - 1 do
    let p = Cr_graphgen.Rng.int rng v in
    Graph.add_edge g p v (float_of_int (1 + Cr_graphgen.Rng.int rng 8))
  done;
  for _ = 1 to n / 3 do
    let u = Cr_graphgen.Rng.int rng n and v = Cr_graphgen.Rng.int rng n in
    if u <> v && Graph.edge_weight g u v = None then
      Graph.add_edge g u v (float_of_int (1 + Cr_graphgen.Rng.int rng 8))
  done;
  Metric.of_graph g

let prop_dist_packing_equals_greedy =
  qcheck_case ~count:10 "distributed packing = greedy on random graphs"
    QCheck2.Gen.(
      let* n = int_range 6 24 in
      let* seed = int_range 0 3_000 in
      let* j = int_range 0 3 in
      return (n, seed, j))
    (fun (n, seed, j) ->
      QCheck2.assume (1 lsl j <= n);
      let m = int_weight_graph n seed in
      let g = Metric.graph m in
      let radii = Cr_proto.Dist_radii.run g in
      let result =
        Cr_proto.Dist_packing.run g
          ~distances:radii.Cr_proto.Dist_radii.distances ~j
      in
      result.Cr_proto.Dist_packing.accepted
      = flood_ball_greedy radii.Cr_proto.Dist_radii.distances j)

let test_dist_packing_tie_free_matches_canonical () =
  (* on a tie-free metric the metric-ball greedy and the canonical-ball
     greedy of Cr_packing coincide *)
  let m = geo48 () in
  let g = Metric.graph m in
  let radii = Cr_proto.Dist_radii.run g in
  let packs = Cr_packing.Ball_packing.build_all m in
  List.iter
    (fun j ->
      let result =
        Cr_proto.Dist_packing.run g
          ~distances:radii.Cr_proto.Dist_radii.distances ~j
      in
      let centralized = Cr_packing.Ball_packing.centers packs.(j) in
      Alcotest.(check (list int))
        (Printf.sprintf "tie-free canonical match at j=%d" j)
        centralized result.Cr_proto.Dist_packing.accepted)
    [ 1; 2; 3 ]

(* --- asynchrony robustness: outcomes must be schedule-independent --- *)

let test_jitter_independence_spt () =
  let m = holey () in
  let g = Metric.graph m in
  let base = Cr_proto.Dist_spt.run g ~root:0 in
  List.iter
    (fun seed ->
      let jittered = Cr_proto.Dist_spt.run g ~root:0 ~jitter:(seed, 2.0) in
      check_bool
        (Printf.sprintf "SPT distances equal under jitter seed %d" seed)
        true
        (Array.for_all2
           (fun a b -> Float.abs (a -. b) < 1e-9)
           base.Cr_proto.Dist_spt.dist jittered.Cr_proto.Dist_spt.dist))
    [ 1; 2; 3 ]

let test_jitter_independence_election () =
  let m = grid6 () in
  let g = Metric.graph m in
  let base = Net_election.run g ~r:2.0 in
  List.iter
    (fun seed ->
      let jittered = Net_election.run g ~r:2.0 ~jitter:(seed, 3.0) in
      Alcotest.(check (list int))
        (Printf.sprintf "election equal under jitter seed %d" seed)
        base.Net_election.net jittered.Net_election.net)
    [ 1; 2; 3 ]

let test_jitter_independence_packing () =
  let m = grid6 () in
  let g = Metric.graph m in
  let radii = Cr_proto.Dist_radii.run g in
  let d = radii.Cr_proto.Dist_radii.distances in
  let base = Cr_proto.Dist_packing.run g ~distances:d ~j:2 in
  List.iter
    (fun seed ->
      let jittered =
        Cr_proto.Dist_packing.run g ~distances:d ~j:2 ~jitter:(seed, 3.0)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "packing equal under jitter seed %d" seed)
        base.Cr_proto.Dist_packing.accepted
        jittered.Cr_proto.Dist_packing.accepted)
    [ 1; 2; 3 ]

let prop_jitter_independence =
  qcheck_case ~count:10 "protocols schedule-independent on random graphs"
    QCheck2.Gen.(
      let* n = int_range 6 20 in
      let* seed = int_range 0 2_000 in
      let* jseed = int_range 1 100 in
      return (n, seed, jseed))
    (fun (n, seed, jseed) ->
      let m = int_weight_graph n seed in
      let g = Metric.graph m in
      let base = Net_election.run g ~r:3.0 in
      let jit = Net_election.run g ~r:3.0 ~jitter:(jseed, 4.0) in
      base.Net_election.net = jit.Net_election.net)

let suite =
  [ Alcotest.test_case "jitter-independent SPT" `Quick
      test_jitter_independence_spt;
    Alcotest.test_case "jitter-independent election" `Quick
      test_jitter_independence_election;
    Alcotest.test_case "jitter-independent packing" `Quick
      test_jitter_independence_packing;
    prop_jitter_independence;
    Alcotest.test_case "distributed radii" `Quick
      test_dist_radii_matches_metric;
    Alcotest.test_case "distributed packing (grid)" `Quick
      test_dist_packing_grid;
    Alcotest.test_case "distributed packing (ring)" `Quick
      test_dist_packing_ring;
    Alcotest.test_case "distributed packing (expo)" `Quick
      test_dist_packing_expo;
    Alcotest.test_case "distributed packing = canonical (tie-free)" `Quick
      test_dist_packing_tie_free_matches_canonical;
    prop_dist_packing_equals_greedy;
    Alcotest.test_case "seeded election" `Quick test_seeded_election;
    Alcotest.test_case "distributed hierarchy = centralized (grid)" `Quick
      test_dist_hierarchy_grid;
    Alcotest.test_case "distributed hierarchy = centralized (ring)" `Quick
      test_dist_hierarchy_ring;
    Alcotest.test_case "distributed hierarchy = centralized (expo)" `Quick
      test_dist_hierarchy_expo;
    Alcotest.test_case "distributed netting parents (grid)" `Quick
      test_dist_netting_grid;
    Alcotest.test_case "distributed netting parents (holey)" `Quick
      test_dist_netting_holey;
    Alcotest.test_case "distributed netting parents (expo)" `Quick
      test_dist_netting_expo;
    Alcotest.test_case "delivery delay" `Quick test_network_delivery_delay;
    Alcotest.test_case "rejects non-neighbor" `Quick
      test_network_rejects_non_neighbor;
    Alcotest.test_case "message budget" `Quick test_network_budget;
    Alcotest.test_case "inject interleaves in-flight" `Quick
      test_inject_interleaves_in_flight;
    Alcotest.test_case "relay allocates <= 8 words per delivery" `Quick
      test_relay_allocation;
    prop_delivery_order_is_sorted;
    Alcotest.test_case "delivered payloads are released" `Quick
      test_delivered_payloads_released;
    Alcotest.test_case "round histogram: grid and 2^i chain" `Quick
      test_round_histogram;
    Alcotest.test_case "distributed SPT on grid" `Quick test_dist_spt_grid;
    Alcotest.test_case "distributed SPT on holey grid" `Quick
      test_dist_spt_holey;
    Alcotest.test_case "distributed SPT on expo chain" `Quick
      test_dist_spt_expo;
    Alcotest.test_case "election on grid" `Quick test_election_grid;
    Alcotest.test_case "election on holey grid" `Quick test_election_holey;
    Alcotest.test_case "election on ring" `Quick test_election_ring;
    Alcotest.test_case "election message counts" `Quick
      test_election_message_counts_positive;
    prop_election_equals_greedy;
    prop_dist_spt_equals_dijkstra ]
