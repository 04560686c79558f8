(* Tests for the message-passing substrate: the event simulator, the
   distributed shortest-path protocol, and the distributed r-net election
   (checked for exact agreement with the centralized constructions). *)

open Helpers
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Dijkstra = Cr_metric.Dijkstra
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
let relay_words_per_delivery ?jitter ?cost ?measure () =
  let n = 64 and deliveries = 20_000 in
  let net =
    Network.create ?jitter ?cost ?measure (Cr_graphgen.Path_like.ring ~n)
      ~init:(fun _ -> ())
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

(* Pricing a message allocates nothing: with an enabled ledger, the same
   relay priced field by field through every [Wire] helper allocates
   exactly the words it allocates with no measure at all. *)
let test_priced_relay_allocation () =
  let u = Cr_proto.Wire.universe 64 in
  let measure () =
    Cr_proto.Wire.(
      tag ~cases:3 2 + node u 63 + opt_node u (-1) + float 0.5 + bool true
      + seq 7)
  in
  let words ?measure () =
    relay_words_per_delivery ~cost:(Cr_obs.Cost.create ()) ?measure ()
  in
  let unpriced = words () in
  let priced = words ~measure () in
  check_bool
    (Printf.sprintf "priced %.2f = unpriced %.2f minor words per delivery"
       priced unpriced)
    true (priced = unpriced)

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

let check_election_matches m r =
  let g = Metric.graph m in
  let result = Net_election.run g ~r in
  let all = List.init (Metric.n m) Fun.id in
  let reference = rnet_greedy m ~r ~candidates:all ~seed:[] in
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

(* A radius that is not positive, NaN included, is refused before any
   message moves: a NaN ball would let no Hello travel and elect every
   node. *)
let test_election_rejects_bad_radius () =
  let g = Metric.graph (grid6 ()) in
  List.iter
    (fun r ->
      Alcotest.check_raises
        (Printf.sprintf "r = %g refused" r)
        (Invalid_argument "Net_election.run: r must be positive")
        (fun () -> ignore (Net_election.run g ~r)))
    [ 0.0; -1.0; Float.nan; Float.neg_infinity ]

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
        rnet_greedy m ~r ~candidates:(List.init n Fun.id) ~seed:[]
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
    rnet_greedy m ~r:2.0 ~candidates:(List.init (Metric.n m) Fun.id) ~seed:seeds
  in
  Alcotest.(check (list int)) "seeded election = seeded greedy" reference
    result.Net_election.net;
  List.iter
    (fun s -> check_bool "seed elected" true (List.mem s result.Net_election.net))
    seeds

let phase_triple (p : Cr_obs.Cost.phase_total) =
  (p.Cr_obs.Cost.messages, p.Cr_obs.Cost.bits, p.Cr_obs.Cost.rounds)

let jitter_case name seed =
  match seed with
  | Some s -> Printf.sprintf "%s jitter %d" name s
  | None -> name

(* A discovery-then-election run's ledger against its pinned triples,
   and each phase's message count against the run's own statistics. *)
let check_two_phases case cost ~discovery ~election
    (discovered : Network.stats) (elected : Network.stats) =
  let triple = Alcotest.(triple int int int) in
  match Cr_obs.Cost.phases cost with
  | [ a; b ] ->
    Alcotest.check triple (case ^ ": discovery messages, bits, rounds")
      discovery (phase_triple a);
    Alcotest.check triple (case ^ ": election messages, bits, rounds")
      election (phase_triple b);
    let m, _, _ = discovery and m', _, _ = election in
    check_int (case ^ ": discovery stats") m discovered.Network.messages;
    check_int (case ^ ": election stats") m' elected.Network.messages
  | ps -> Alcotest.failf "%s: expected 2 phases, got %d" case (List.length ps)

(* Election traffic, pinned like packing's below: messages, ledger bits
   and rounds of each phase. The radii reach several hops, and on grid6
   and geo48 jitter delivers improving arrivals (their counts move with
   the seed), so a handler that re-floods, or counts a decision twice,
   on a shorter arrival shows here. *)
let election_traffic =
  (* fixture, r, jitter seed;
     discovery messages, bits, rounds; election messages, bits, rounds *)
  [ ("grid6", grid6, 6.0, None, (2860, 203060, 6), (2980, 212004, 20));
    ("grid6", grid6, 6.0, Some 1, (2867, 203557, 17), (2987, 212508, 52));
    ("grid6", grid6, 6.0, Some 2, (2866, 203486, 17), (2983, 212220, 51));
    ("grid6", grid6, 6.0, Some 3, (2860, 203060, 19), (2986, 212436, 56));
    ("ring16", ring16, 5.0, None, (240, 16560, 5), (272, 17936, 16));
    ("ring16", ring16, 5.0, Some 1, (240, 16560, 14), (272, 17936, 46));
    ("ring16", ring16, 5.0, Some 2, (240, 16560, 14), (272, 17936, 42));
    ("ring16", ring16, 5.0, Some 3, (240, 16560, 14), (272, 17936, 46));
    ("geo48", geo48, 16.0, None, (911, 64681, 16), (1032, 70896, 50));
    ("geo48", geo48, 16.0, Some 1, (1051, 74621, 57), (1200, 82992, 124));
    ("geo48", geo48, 16.0, Some 2, (1032, 73272, 61), (1174, 81120, 135));
    ("geo48", geo48, 16.0, Some 3, (1056, 74976, 60), (1160, 80112, 117)) ]

(* Per phase, in the order the ledger first saw them:
   name, (messages, bits, rounds). *)
let hierarchy_traffic =
  [ ( None,
      [ ("hierarchy.l6.discovery", (6557, 465547, 64));
        ("hierarchy.l6.election", (6733, 481368, 64));
        ("hierarchy.l5.discovery", (2771, 196741, 32));
        ("hierarchy.l5.election", (2947, 208776, 60));
        ("hierarchy.l4.discovery", (911, 64681, 16));
        ("hierarchy.l4.election", (1032, 70896, 35));
        ("hierarchy.l3.discovery", (286, 20306, 8));
        ("hierarchy.l3.election", (307, 18696, 20));
        ("hierarchy.l2.discovery", (102, 7242, 4));
        ("hierarchy.l2.election", (105, 4152, 8));
        ("hierarchy.l1.discovery", (58, 4118, 2));
        ("hierarchy.l1.election", (58, 768, 2)) ] );
    ( Some 1,
      [ ("hierarchy.l6.discovery", (10889, 773119, 211));
        ("hierarchy.l6.election", (11297, 809976, 209));
        ("hierarchy.l5.discovery", (3580, 254180, 110));
        ("hierarchy.l5.election", (4001, 284664, 142));
        ("hierarchy.l4.discovery", (1051, 74621, 57));
        ("hierarchy.l4.election", (1168, 80688, 90));
        ("hierarchy.l3.discovery", (290, 20590, 29));
        ("hierarchy.l3.election", (316, 19344, 61));
        ("hierarchy.l2.discovery", (104, 7384, 15));
        ("hierarchy.l2.election", (107, 4296, 22));
        ("hierarchy.l1.discovery", (58, 4118, 7));
        ("hierarchy.l1.election", (58, 768, 7)) ] ) ]

(* The netting phases of [dist_netting_parents] on geo48, after the
   hierarchy it elects, all under jitter seed 1. *)
let netting_traffic =
  [ ("dist_netting.l0", (50, 3500, 7));
    ("dist_netting.l1", (57, 3990, 15));
    ("dist_netting.l2", (92, 6440, 27));
    ("dist_netting.l3", (169, 11830, 52));
    ("dist_netting.l4", (282, 19740, 103));
    ("dist_netting.l5", (238, 16660, 180));
    ("dist_netting.l6", (270, 18900, 198)) ]

let check_phases case ?(keep = fun _ -> true) expected cost =
  let actual =
    List.filter_map
      (fun (p : Cr_obs.Cost.phase_total) ->
        if keep p.Cr_obs.Cost.phase then
          Some (p.Cr_obs.Cost.phase, phase_triple p)
        else None)
      (Cr_obs.Cost.phases cost)
  in
  Alcotest.(check (list (pair string (triple int int int))))
    (case ^ ": phase, messages, bits, rounds")
    expected actual

let test_election_traffic () =
  List.iter
    (fun (name, fixture, r, seed, discovery, election) ->
      let g = Metric.graph (fixture ()) in
      let cost = Cr_obs.Cost.create () in
      let jitter = Option.map (fun s -> (s, 3.0)) seed in
      let result =
        Net_election.run ~via:(Network.local ~cost ?jitter ()) g ~r
      in
      check_two_phases
        (jitter_case (Printf.sprintf "%s r=%g" name r) seed)
        cost ~discovery ~election result.Net_election.discovery
        result.Net_election.election)
    election_traffic;
  List.iter
    (fun (seed, expected) ->
      let cost = Cr_obs.Cost.create () in
      let jitter = Option.map (fun s -> (s, 3.0)) seed in
      ignore
        (Cr_proto.Dist_hierarchy.build
           ~via:(Network.local ~cost ?jitter ())
           (geo48 ()));
      check_phases (jitter_case "geo48 hierarchy" seed) expected cost)
    hierarchy_traffic;
  let cost = Cr_obs.Cost.create () in
  ignore
    (dist_netting_parents
       ~via:(Network.local ~cost ~jitter:(1, 3.0) ())
       (geo48 ()));
  check_phases "geo48 netting jitter 1"
    ~keep:(String.starts_with ~prefix:"dist_netting")
    netting_traffic cost

(* Under jitter every Out node's [nearest_in] is the centralized least
   (distance, id) member strictly within r, and every member its own.
   Integer weights keep the flood's sums exact, so the distances compare
   with [=]. *)
let prop_nearest_in_is_least =
  qcheck_case ~count:15 "election nearest_in = least (distance, id) member"
    QCheck2.Gen.(
      let* n = int_range 6 24 in
      let* seed = int_range 0 3_000 in
      let* r = float_range 1.5 20.0 in
      let* jseed = int_range 1 100 in
      return (n, seed, r, jseed))
    (fun (n, seed, r, jseed) ->
      let m = int_weight_graph n seed in
      let result =
        Net_election.run (Metric.graph m) ~r
          ~via:(Network.local ~jitter:(jseed, 3.0) ())
      in
      let net = result.Net_election.net in
      List.for_all
        (fun v ->
          let expected =
            if List.mem v net then Some (v, 0.0)
            else
              List.fold_left
                (fun acc o ->
                  let d = Metric.dist m v o in
                  if not (d < r) then acc
                  else
                    match acc with
                    | Some (_, best) when best <= d -> acc
                    | _ -> Some (o, d))
                None net
          in
          result.Net_election.nearest_in.(v) = expected)
        (List.init n Fun.id))

(* What the election's handlers allocate per delivered message, at a
   radius that reaches most of geo48: the simulator's own words, the sent
   messages, and little else. A handler that boxes a tuple or an option
   per delivery goes over the bound. *)
let test_election_allocation () =
  let g = Metric.graph (geo48 ()) in
  List.iter
    (fun jitter ->
      let via = Network.local ?jitter () in
      ignore (Net_election.run ~via g ~r:64.0);
      let before = Gc.minor_words () in
      let result = Net_election.run ~via g ~r:64.0 in
      let after = Gc.minor_words () in
      let messages =
        result.Net_election.discovery.Network.messages
        + result.Net_election.election.Network.messages
      in
      let words = (after -. before) /. float_of_int messages in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per delivery <= 16"
           (jitter_case "geo48 r=64" (Option.map fst jitter))
           words)
        true (words <= 16.0))
    [ None; Some (1, 3.0) ]

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

(* Packing traffic, pinned: messages, ledger bits and rounds of each
   phase, so a handler change that moves one message, one bit or one
   delivery's timing fails here. Under jitter every send draws the next
   delay from one stream, so the rounds also pin the order of the sends.
   On the grid, ring and chain every node first hears a flood along a
   shortest path; only geo48 under jitter delivers improving arrivals,
   where a note or relay sent twice would show. *)
let packing_traffic =
  (* fixture, j, jitter seed;
     discovery messages, bits, rounds; election messages, bits, rounds *)
  [ ("grid6", grid6, 0, None, (36, 5076, 1), (36, 72, 1));
    ("grid6", grid6, 1, None, (572, 54028, 3), (572, 23472, 18));
    ("grid6", grid6, 2, None, (740, 68500, 5), (740, 29064, 18));
    ("grid6", grid6, 3, None, (6156, 513180, 7), (6156, 165600, 24));
    ("ring16", ring16, 2, None, (496, 43488, 5), (496, 17600, 16));
    ("expo12", expo12, 2, None, (314, 26378, 3585), (314, 8722, 4605));
    ("grid6", grid6, 2, Some 1, (740, 68500, 15), (740, 29064, 44));
    ("grid6", grid6, 2, Some 2, (740, 68500, 13), (740, 29064, 43));
    ("grid6", grid6, 2, Some 3, (740, 68500, 14), (740, 29064, 44));
    ("grid6", grid6, 3, Some 1, (6156, 513180, 21), (6156, 165600, 57));
    ("grid6", grid6, 3, Some 2, (6156, 513180, 19), (6156, 165600, 60));
    ("grid6", grid6, 3, Some 3, (6156, 513180, 21), (6156, 165600, 57));
    ("geo48", geo48, 3, None, (5743, 495971, 60), (5743, 186897, 112));
    ("geo48", geo48, 3, Some 1, (6080, 532416, 161), (5865, 204343, 235));
    ("geo48", geo48, 3, Some 2, (6061, 528841, 177), (5908, 210492, 273));
    ("geo48", geo48, 3, Some 3, (6106, 534354, 185), (5878, 206202, 276)) ]

let test_dist_packing_traffic () =
  List.iter
    (fun (name, fixture, j, seed, discovery, election) ->
      let g = Metric.graph (fixture ()) in
      let distances =
        (Cr_proto.Dist_radii.run g).Cr_proto.Dist_radii.distances
      in
      let cost = Cr_obs.Cost.create () in
      let jitter = Option.map (fun s -> (s, 3.0)) seed in
      let r =
        Cr_proto.Dist_packing.run ~via:(Network.local ~cost ?jitter ()) g
          ~distances ~j
      in
      check_two_phases
        (jitter_case (Printf.sprintf "%s j=%d" name j) seed)
        cost ~discovery ~election r.Cr_proto.Dist_packing.discovery
        r.Cr_proto.Dist_packing.election)
    packing_traffic

let test_dist_packing_grid () =
  List.iter (fun j -> check_packing_matches (grid6 ()) j) [ 0; 1; 2; 3 ]

let test_dist_packing_ring () = check_packing_matches (ring16 ()) 2
let test_dist_packing_expo () = check_packing_matches (expo12 ()) 2

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
      let jittered =
        Cr_proto.Dist_spt.run g ~root:0
          ~via:(Network.local ~jitter:(seed, 2.0) ())
      in
      check_bool
        (Printf.sprintf "SPT distances equal under jitter seed %d" seed)
        true
        (Array.for_all2
           (fun a b -> Float.abs (a -. b) < 1e-9)
           base.Cr_proto.Dist_spt.dist jittered.Cr_proto.Dist_spt.dist))
    [ 1; 2; 3 ]

(* geo48 at r = 16 and j = 3: jitter delivers improving arrivals there
   (the pinned traffic moves with the seed), so the schedule can matter. *)
let test_jitter_independence_election () =
  let m = geo48 () in
  let g = Metric.graph m in
  let base = Net_election.run g ~r:16.0 in
  List.iter
    (fun seed ->
      let jittered =
        Net_election.run g ~r:16.0 ~via:(Network.local ~jitter:(seed, 3.0) ())
      in
      Alcotest.(check (list int))
        (Printf.sprintf "election equal under jitter seed %d" seed)
        base.Net_election.net jittered.Net_election.net)
    [ 1; 2; 3 ]

let test_jitter_independence_packing () =
  let m = geo48 () in
  let g = Metric.graph m in
  let radii = Cr_proto.Dist_radii.run g in
  let d = radii.Cr_proto.Dist_radii.distances in
  let base = Cr_proto.Dist_packing.run g ~distances:d ~j:3 in
  List.iter
    (fun seed ->
      let jittered =
        Cr_proto.Dist_packing.run g ~distances:d ~j:3
          ~via:(Network.local ~jitter:(seed, 3.0) ())
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
      let jit =
        Net_election.run g ~r:3.0 ~via:(Network.local ~jitter:(jseed, 4.0) ())
      in
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
    Alcotest.test_case "distributed packing traffic pinned" `Quick
      test_dist_packing_traffic;
    Alcotest.test_case "distributed packing = canonical (tie-free)" `Quick
      test_dist_packing_tie_free_matches_canonical;
    prop_dist_packing_equals_greedy;
    Alcotest.test_case "seeded election" `Quick test_seeded_election;
    Alcotest.test_case "distributed election traffic pinned" `Quick
      test_election_traffic;
    prop_nearest_in_is_least;
    Alcotest.test_case "election allocates <= 16 words per delivery" `Quick
      test_election_allocation;
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
    Alcotest.test_case "pricing a relay allocates nothing" `Quick
      test_priced_relay_allocation;
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
    Alcotest.test_case "election rejects a radius that is not positive"
      `Quick test_election_rejects_bad_radius;
    prop_election_equals_greedy;
    prop_dist_spt_equals_dijkstra ]
