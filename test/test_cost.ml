(* Cr_obs.Cost — CONGEST accounting: unit behavior of the accumulator,
   bit-exact conservation through the network simulator, pool-size
   invariance, the reliable transport's framing/retransmit overhead, and
   the walker's per-edge reuse. *)

open Helpers
module Cost = Cr_obs.Cost
module Network = Cr_proto.Network
module Wire = Cr_proto.Wire
module Plan = Cr_fault.Plan
module Reliable = Cr_fault.Reliable
module Walker = Cr_sim.Walker
module Pool = Cr_par.Pool

let edge_sums t =
  List.fold_left
    (fun (m, b) (e : Cost.edge_load) -> (m + e.Cost.messages, b + e.Cost.bits))
    (0, 0) (Cost.edge_loads t)

(* accumulator unit behavior *)

let test_unit_accounting () =
  let t = Cost.create () in
  check_bool "enabled" true (Cost.enabled t);
  Cost.record t ~phase:"a" ~src:0 ~dst:1 ~round:0 ~bits:10;
  Cost.record t ~phase:"a" ~src:1 ~dst:0 ~round:1 ~bits:10;
  Cost.record t ~phase:"b" ~src:2 ~dst:1 ~round:0 ~bits:7;
  (* external injection: phase totals only, no edge *)
  Cost.record t ~phase:"a" ~src:(-1) ~dst:0 ~round:0 ~bits:3;
  let s = Cost.summary t in
  check_int "total messages" 4 s.Cost.total_messages;
  check_int "total bits" 30 s.Cost.total_bits;
  (* phase a spans rounds 0-1 (2 rounds), phase b round 0 (1 round) *)
  check_int "total rounds" 3 s.Cost.total_rounds;
  check_int "max edge messages" 2 s.Cost.max_edge_messages;
  check_int "max edge bits" 20 s.Cost.max_edge_bits;
  (match Cost.edge_loads t with
  | [ e01; e12 ] ->
    check_int "edge (0,1) u" 0 e01.Cost.u;
    check_int "edge (0,1) v" 1 e01.Cost.v;
    check_int "edge (0,1) messages (both directions)" 2 e01.Cost.messages;
    check_int "edge (1,2) u" 1 e12.Cost.u;
    check_int "edge (1,2) messages" 1 e12.Cost.messages
  | loads -> Alcotest.failf "expected 2 edges, got %d" (List.length loads));
  (match Cost.top_edges t ~k:1 with
  | [ e ] -> check_int "hottest edge is (0,1)" 0 e.Cost.u
  | _ -> Alcotest.fail "top_edges k:1");
  (match Cost.phases t with
  | [ a; b ] ->
    check_bool "first-recorded order" true
      (a.Cost.phase = "a" && b.Cost.phase = "b");
    check_int "phase a messages" 3 a.Cost.messages;
    check_int "phase a rounds" 2 a.Cost.rounds;
    check_bool "phase a histogram" true
      (a.Cost.round_histogram = [ (0, 2); (1, 1) ])
  | ps -> Alcotest.failf "expected 2 phases, got %d" (List.length ps))

let test_null_is_inert () =
  check_bool "null disabled" false (Cost.enabled Cost.null);
  Cost.record Cost.null ~phase:"x" ~src:0 ~dst:1 ~round:0 ~bits:64;
  let s = Cost.summary Cost.null in
  check_int "null records nothing" 0 s.Cost.total_messages;
  check_bool "null has no edges" true (Cost.edge_loads Cost.null = [])

let test_wire_widths () =
  check_int "tag over 1 case (unary still costs a bit)" 1
    (Wire.measure (fun w -> Wire.push_tag w ~cases:1 0));
  check_int "tag over 64 cases" 6
    (Wire.measure (fun w -> Wire.push_tag w ~cases:64 63));
  check_int "node id, n=36" 6 (Wire.measure (fun w -> Wire.push_node w ~n:36 35));
  check_int "float is a full double" 64
    (Wire.measure (fun w -> Wire.push_float w 1.5));
  check_int "opt node draws from n+1" 6
    (Wire.measure (fun w -> Wire.push_opt_node w ~n:36 (-1)));
  check_int "tag over 3 cases" 2
    (Wire.measure (fun w -> Wire.push_tag w ~cases:3 2));
  (* measure is exactly the bitbuf's own length accounting *)
  let direct =
    let w = Cr_codec.Bitbuf.writer () in
    Wire.push_float w 2.5;
    Wire.push_node w ~n:36 7;
    Cr_codec.Bitbuf.length_bits w
  in
  check_int "measure = Bitbuf.length_bits" direct
    (Wire.measure (fun w ->
         Wire.push_float w 2.5;
         Wire.push_node w ~n:36 7))

(* conservation through the simulator: every delivered message lands in
   the accumulator with its Wire-measured size *)

let test_spt_conservation () =
  let g = Metric.graph (grid6 ()) in
  let n = Graph.n g in
  let cost = Cost.create () in
  let via = Network.local ~cost () in
  let r = Cr_proto.Dist_spt.run ~via g ~root:0 in
  let s = Cost.summary cost in
  check_int "cost.messages = stats.messages" r.Cr_proto.Dist_spt.stats.Network.messages
    s.Cost.total_messages;
  (* one kickoff injection carries no edge; everything else does *)
  let edge_messages, edge_bits = edge_sums cost in
  check_int "edge messages = deliveries - kickoff" (s.Cost.total_messages - 1)
    edge_messages;
  (* every Offer has one fixed encoding size, so bit totals are exact
     multiples of the Bitbuf-measured message size *)
  let offer_bits =
    Wire.measure (fun w ->
        Wire.push_float w 0.0;
        Wire.push_opt_node w ~n (-1))
  in
  check_int "total bits = messages x measured size"
    (s.Cost.total_messages * offer_bits)
    s.Cost.total_bits;
  check_int "edge bits = edge messages x measured size"
    (edge_messages * offer_bits) edge_bits;
  check_bool "congestion positive" true (s.Cost.max_edge_messages > 0)

let hierarchy_render ~domains =
  let pool = Pool.create ~domains () in
  let m = Metric.of_graph ~pool (Cr_graphgen.Grid.square ~side:6) in
  let cost = Cost.create () in
  let via = Network.local ~cost () in
  ignore (Cr_proto.Dist_hierarchy.build ~via m);
  Cost.render cost

let test_domains_invariance () =
  check_bool "render byte-identical across CR_DOMAINS=1/4" true
    (String.equal (hierarchy_render ~domains:1) (hierarchy_render ~domains:4))

(* reliable transport: framing counted, null plan deterministic, lossy
   plan's retransmissions are extra cost over the same final tables *)

let reliable_spt ?plan () =
  let cost = Cost.create () in
  let rt = Reliable.create ?plan ~cost () in
  let g = Metric.graph (grid6 ()) in
  let r = Cr_proto.Dist_spt.run ~via:(Reliable.runner rt) g ~root:0 in
  (r, Cost.summary cost, Cost.render cost)

let test_reliable_null_plan () =
  let g = Metric.graph (grid6 ()) in
  let plain_cost = Cost.create () in
  let plain =
    Cr_proto.Dist_spt.run ~via:(Network.local ~cost:plain_cost ()) g ~root:0
  in
  let hard, hs, render1 = reliable_spt ~plan:(Plan.make ~seed:1 ()) () in
  let _, _, render2 = reliable_spt ~plan:(Plan.make ~seed:2 ()) () in
  check_bool "same tree as plain run" true
    (plain.Cr_proto.Dist_spt.dist = hard.Cr_proto.Dist_spt.dist
    && plain.Cr_proto.Dist_spt.pred = hard.Cr_proto.Dist_spt.pred);
  check_bool "byte-identical across null-plan runs" true
    (String.equal render1 render2);
  let ps = Cost.summary plain_cost in
  check_bool "acks make hardened messages strictly larger" true
    (hs.Cost.total_messages > ps.Cost.total_messages);
  check_bool "framing makes hardened bits strictly larger" true
    (hs.Cost.total_bits > ps.Cost.total_bits)

let test_lossy_costs_more () =
  let _, clean, _ = reliable_spt () in
  let lossy_r, lossy, _ =
    reliable_spt ~plan:(Plan.make ~seed:5 ~drop:0.05 ()) ()
  in
  let plain = Cr_proto.Dist_spt.run (Metric.graph (grid6 ())) ~root:0 in
  check_bool "lossy run still converges to the same tree" true
    (plain.Cr_proto.Dist_spt.dist = lossy_r.Cr_proto.Dist_spt.dist);
  check_bool "retransmissions are extra messages" true
    (lossy.Cost.total_messages > clean.Cost.total_messages);
  check_bool "retransmissions are extra bits" true
    (lossy.Cost.total_bits > clean.Cost.total_bits)

(* walker reuse: routed traffic charges the same per-edge ledger *)

let test_walker_accounting () =
  let m = grid6 () in
  let cost = Cost.create () in
  let w = Walker.create ~cost ~hop_bits:8 m ~start:0 ~max_hops:100 in
  Walker.walk_shortest_path w 35;
  let hops = Walker.hops w in
  let s = Cost.summary cost in
  check_int "one message per hop" hops s.Cost.total_messages;
  check_int "hop_bits per hop" (8 * hops) s.Cost.total_bits;
  let edge_messages, _ = edge_sums cost in
  check_int "every hop crosses a real edge" hops edge_messages;
  (* re-walking the same path doubles the per-edge load *)
  let w2 = Walker.create ~cost m ~start:0 ~max_hops:100 in
  Walker.walk_shortest_path w2 35;
  (match Cost.top_edges cost ~k:1 with
  | [ e ] -> check_int "hottest edge carries both walks" 2 e.Cost.messages
  | _ -> Alcotest.fail "top_edges k:1");
  (* a walker without [cost] leaves the ledger untouched *)
  let before = (Cost.summary cost).Cost.total_messages in
  let quiet = Walker.create m ~start:0 ~max_hops:10 in
  Walker.walk_shortest_path quiet 1;
  check_int "default walker records nothing" before
    (Cost.summary cost).Cost.total_messages

(* The ledger against a list model. Phases interleave, and a phase is
   passed either as the shared literal or as a fresh copy (equal, not
   physically equal), so the last-phase cache must fall back to the
   table; rounds repeat, go backwards and go negative; endpoints may be
   -1 or equal. A [None] is a [reset]. *)
type cost_op = (int * bool * int * int * int * int) option

let phase_names = [| "alpha"; "beta"; "gamma" |]

let model_of (ops : cost_op list) =
  List.fold_left
    (fun acc op ->
      match op with
      | None -> []
      | Some (p, _, src, dst, round, bits) ->
        (phase_names.(p), src, dst, round, bits) :: acc)
    [] ops
  |> List.rev

let count_by key xs =
  List.fold_left
    (fun acc x ->
      let k = key x in
      match List.assoc_opt k acc with
      | Some c -> (k, c + 1) :: List.remove_assoc k acc
      | None -> (k, 1) :: acc)
    [] xs
  |> List.sort compare

let model_phases recs =
  let order =
    List.fold_left
      (fun acc (p, _, _, _, _) -> if List.mem p acc then acc else acc @ [ p ])
      [] recs
  in
  List.map
    (fun phase ->
      let mine = List.filter (fun (p, _, _, _, _) -> p = phase) recs in
      { Cost.phase;
        messages = List.length mine;
        bits = List.fold_left (fun a (_, _, _, _, b) -> a + b) 0 mine;
        rounds =
          1 + List.fold_left (fun a (_, _, _, r, _) -> max a r) (-1) mine;
        round_histogram = count_by (fun (_, _, _, r, _) -> r) mine })
    order

let model_edges recs =
  let on_edges =
    List.filter (fun (_, s, d, _, _) -> s >= 0 && d >= 0 && s <> d) recs
  in
  let key (_, s, d, _, _) = (min s d, max s d) in
  List.map
    (fun (u, v) ->
      let mine = List.filter (fun r -> key r = (u, v)) on_edges in
      { Cost.u; v;
        messages = List.length mine;
        bits = List.fold_left (fun a (_, _, _, _, b) -> a + b) 0 mine })
    (List.sort_uniq compare (List.map key on_edges))

let model_render (phases : Cost.phase_total list) (edges : Cost.edge_load list) =
  let total f = List.fold_left (fun a p -> a + f p) 0 phases in
  let edge_max f = List.fold_left (fun a e -> max a (f e)) 0 edges in
  String.concat ""
    ([ Printf.sprintf "%-36s %8s %12s %14s\n" "phase" "rounds" "messages" "bits" ]
    @ List.map
        (fun (p : Cost.phase_total) ->
          Printf.sprintf "%-36s %8d %12d %14d\n" p.Cost.phase p.Cost.rounds
            p.Cost.messages p.Cost.bits)
        phases
    @ [ Printf.sprintf "%-36s %8d %12d %14d\n" "TOTAL"
          (total (fun (p : Cost.phase_total) -> p.Cost.rounds))
          (total (fun (p : Cost.phase_total) -> p.Cost.messages))
          (total (fun (p : Cost.phase_total) -> p.Cost.bits));
        Printf.sprintf "max edge load: %d messages, %d bits over %d edges\n"
          (edge_max (fun (e : Cost.edge_load) -> e.Cost.messages))
          (edge_max (fun (e : Cost.edge_load) -> e.Cost.bits))
          (List.length edges) ])

let prop_ledger_matches_model =
  qcheck_case ~count:300 "cost: ledger = list model"
    QCheck2.Gen.(
      let record =
        let* p = int_range 0 2 and* fresh = bool in
        let* src = int_range (-1) 4 and* dst = int_range (-1) 4 in
        let* round = int_range (-3) 5 and* bits = int_range 0 100 in
        return (Some (p, fresh, src, dst, round, bits))
      in
      list_size (int_range 0 80) (frequency [ (30, record); (1, return None) ]))
    (fun (ops : cost_op list) ->
      (* [None] starts a fresh ledger: the model keeps only what follows *)
      let t =
        List.fold_left
          (fun t -> function
            | None -> Cost.create ()
            | Some (p, fresh, src, dst, round, bits) ->
              let name = phase_names.(p) in
              let phase = if fresh then String.init (String.length name) (String.get name) else name in
              Cost.record t ~phase ~src ~dst ~round ~bits;
              t)
          (Cost.create ()) ops
      in
      let recs = model_of ops in
      let phases = model_phases recs and edges = model_edges recs in
      let by_load (a : Cost.edge_load) (b : Cost.edge_load) =
        compare (-a.Cost.messages, -a.Cost.bits, a.Cost.u, a.Cost.v)
          (-b.Cost.messages, -b.Cost.bits, b.Cost.u, b.Cost.v)
      in
      let top = List.filteri (fun i _ -> i < 3) (List.sort by_load edges) in
      let s = Cost.summary t in
      Cost.phases t = phases
      && Cost.edge_loads t = edges
      && Cost.top_edges t ~k:3 = top
      && s.Cost.total_messages = List.length recs
      && s.Cost.total_rounds
         = List.fold_left (fun a p -> a + p.Cost.rounds) 0 phases
      && Cost.render t = model_render phases edges)

(* Edge cells pack both endpoints into one int: ids below 2^31 round-trip,
   a larger one is rejected before the ledger moves. *)
let test_edge_id_range () =
  let t = Cost.create () in
  let top = (1 lsl 31) - 1 in
  Cost.record t ~phase:"p" ~src:top ~dst:(top - 1) ~round:0 ~bits:5;
  Cost.record t ~phase:"p" ~src:0 ~dst:top ~round:0 ~bits:1;
  (match Cost.edge_loads t with
  | [ a; b ] ->
    check_bool "(0, 2^31 - 1)" true (a.Cost.u = 0 && a.Cost.v = top);
    check_bool "(2^31 - 2, 2^31 - 1)" true
      (b.Cost.u = top - 1 && b.Cost.v = top && b.Cost.bits = 5)
  | loads -> Alcotest.failf "expected 2 edges, got %d" (List.length loads));
  let before = Cost.render t in
  Alcotest.check_raises "2^31 rejected" (Cost.Node_id_too_large (top + 1))
    (fun () -> Cost.record t ~phase:"p" ~src:(top + 1) ~dst:3 ~round:0 ~bits:1);
  Alcotest.(check string) "rejected record leaves the ledger" before
    (Cost.render t);
  (* without an edge no key is formed, so any id is accepted *)
  Cost.record t ~phase:"p" ~src:(-1) ~dst:(top + 1) ~round:0 ~bits:1;
  check_int "phase-only record" 3 (Cost.summary t).Cost.total_messages

let test_heatmap () =
  let t = Cost.create () in
  Cost.record t ~phase:"flood" ~src:0 ~dst:1 ~round:0 ~bits:12;
  let heat = Cr_obs.Chrome.heatmap t in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "heatmap names the edge" true (contains ~needle:"edge 0-1" heat)

let suite =
  [ Alcotest.test_case "accumulator unit behavior" `Quick test_unit_accounting;
    Alcotest.test_case "null accumulator is inert" `Quick test_null_is_inert;
    Alcotest.test_case "wire encodings have documented widths" `Quick
      test_wire_widths;
    Alcotest.test_case "spt: bit-exact conservation" `Quick
      test_spt_conservation;
    Alcotest.test_case "byte-identical across CR_DOMAINS" `Quick
      test_domains_invariance;
    Alcotest.test_case "reliable transport: null plan" `Quick
      test_reliable_null_plan;
    Alcotest.test_case "reliable transport: lossy plan costs more" `Quick
      test_lossy_costs_more;
    Alcotest.test_case "walker per-edge accounting" `Quick
      test_walker_accounting;
    Alcotest.test_case "heatmap" `Quick test_heatmap;
    prop_ledger_matches_model;
    Alcotest.test_case "edge ids up to 2^31 - 1" `Quick test_edge_id_range ]
