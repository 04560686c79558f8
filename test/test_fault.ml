(* Tests for Cr_fault: keyed-PRNG and plan determinism, the null-plan
   identity (a zero-fault plan is byte-identical to no plan at all, traces
   included), hardened-transport convergence (tables under drops,
   duplicates, delays, and crash windows equal the fault-free
   constructions), typed budget-exhaustion errors, and degraded-mode
   routing. *)

open Helpers
module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric
module Network = Cr_proto.Network
module Trace = Cr_obs.Trace
module Plan = Cr_fault.Plan
module Reliable = Cr_fault.Reliable
module Splitmix = Cr_graphgen.Splitmix
module Failures = Cr_sim.Failures
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload

(* ---- keyed PRNG ---- *)

let test_splitmix_deterministic () =
  let k = Splitmix.of_int 42 in
  check_bool "same key, same draw" true
    (Splitmix.uniform (Splitmix.mix k 7) = Splitmix.uniform (Splitmix.mix k 7));
  check_bool "different index, different draw" true
    (Splitmix.uniform (Splitmix.mix k 7)
    <> Splitmix.uniform (Splitmix.mix k 8));
  for i = 0 to 999 do
    let u = Splitmix.uniform (Splitmix.mix k i) in
    check_bool "uniform in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_plan_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Plan.make: drop must lie in [0, 1]") (fun () ->
      ignore (Plan.make ~seed:1 ~drop:1.5 ()));
  Alcotest.check_raises "empty crash window"
    (Invalid_argument "Plan.make: crash window must satisfy 0 <= down_at < up_at")
    (fun () ->
      ignore
        (Plan.make ~seed:1
           ~crashes:[ { Plan.node = 0; down_at = 2.0; up_at = 2.0 } ]
           ()))

(* Fault decisions are keyed by (seed, edge, per-edge index): traffic on
   one edge cannot perturb another edge's decision stream, and a fresh
   [hooks] replays identically. *)
let test_plan_hooks_reproducible () =
  let plan = Plan.make ~seed:9 ~drop:0.3 ~duplicate:0.2 ~delay_prob:0.3
      ~delay_factor:2.0 () in
  let stream hooks ~interleave =
    List.init 40 (fun i ->
        if interleave then
          ignore (hooks.Network.copies ~src:2 ~dst:3 ~delay:1.0);
        ignore i;
        hooks.Network.copies ~src:0 ~dst:1 ~delay:1.0)
  in
  let a = stream (Plan.hooks plan) ~interleave:false in
  let b = stream (Plan.hooks plan) ~interleave:true in
  check_bool "per-edge stream independent of other traffic" true (a = b)

let test_plan_samplers_deterministic () =
  let g = Metric.graph (holey ()) in
  let e1 = Plan.sample_edge_failures ~seed:3 ~rate:0.1 g in
  let e2 = Plan.sample_edge_failures ~seed:3 ~rate:0.1 g in
  check_bool "edge sample replays" true (e1 = e2);
  List.iter
    (fun (u, v) ->
      check_bool "edge ordered" true (u < v);
      check_bool "edge exists" true (Graph.edge_weight g u v <> None))
    e1;
  (* nested as the rate grows: a failed edge stays failed *)
  let e3 = Plan.sample_edge_failures ~seed:3 ~rate:0.3 g in
  List.iter
    (fun e -> check_bool "nested in higher rate" true (List.mem e e3))
    e1;
  let n1 = Plan.sample_node_failures ~seed:3 ~fraction:0.2 50 in
  check_bool "node sample replays" true
    (n1 = Plan.sample_node_failures ~seed:3 ~fraction:0.2 50);
  check_bool "protect removes" true
    (List.for_all
       (fun v -> not (List.mem v n1))
       (Plan.sample_node_failures ~protect:n1 ~seed:3 ~fraction:0.2 50))

(* ---- null-plan identity ---- *)

let collecting_context () =
  let events = ref [] in
  let ctx =
    Trace.make ~clock:(Trace.counting_clock ())
      { Trace.emit = (fun e -> events := e :: !events) }
  in
  (ctx, events)

(* A zero-fault plan interposes on every send yet must change nothing:
   same tables, same statistics, same trace events as no plan at all. *)
let test_null_plan_identity () =
  let m = holey () in
  let g = Metric.graph m in
  let run plan =
    let ctx, events = collecting_context () in
    let rt = Reliable.create ?plan ~obs:ctx () in
    let r = Cr_proto.Dist_spt.run ~via:(Reliable.runner rt) g ~root:0 in
    (r.Cr_proto.Dist_spt.dist, r.Cr_proto.Dist_spt.pred,
     r.Cr_proto.Dist_spt.stats, Reliable.totals rt, List.rev !events)
  in
  let d0, p0, s0, t0, e0 = run None in
  let d1, p1, s1, t1, e1 = run (Some (Plan.make ~seed:7 ())) in
  check_bool "distances identical" true (d0 = d1);
  check_bool "preds identical" true (p0 = p1);
  check_bool "stats identical" true (s0 = s1);
  check_bool "transport totals identical" true (t0 = t1);
  check_bool "trace events identical" true (e0 = e1);
  check_int "no drops" 0 t1.Reliable.faults.Network.sent_dropped;
  check_int "no retransmits" 0 t1.Reliable.retransmits

(* ---- hardened convergence under faults ---- *)

let lossy_plan seed =
  Plan.make ~seed ~drop:0.15 ~duplicate:0.1 ~delay_prob:0.3 ~delay_factor:1.5
    ()

let via_of plan = Reliable.runner (Reliable.create ~plan ())

let test_hardened_spt_converges () =
  List.iter
    (fun m ->
      let g = Metric.graph m in
      let plain = Cr_proto.Dist_spt.run g ~root:0 in
      let hard = Cr_proto.Dist_spt.run ~via:(via_of (lossy_plan 1)) g ~root:0 in
      check_bool "dist equal" true
        (plain.Cr_proto.Dist_spt.dist = hard.Cr_proto.Dist_spt.dist);
      check_bool "pred equal" true
        (plain.Cr_proto.Dist_spt.pred = hard.Cr_proto.Dist_spt.pred))
    [ grid6 (); holey (); expo12 () ]

let test_hardened_hierarchy_converges () =
  List.iter
    (fun m ->
      let centralized = Cr_nets.Hierarchy.build m in
      let hard = Cr_proto.Dist_hierarchy.build ~via:(via_of (lossy_plan 2)) m in
      for i = 0 to Metric.levels m do
        Alcotest.(check (list int))
          (Printf.sprintf "level %d nets equal under faults" i)
          (Cr_nets.Hierarchy.net centralized i)
          hard.Cr_proto.Dist_hierarchy.nets.(i)
      done)
    [ grid6 (); ring16 () ]

let test_hardened_netting_converges () =
  let m = grid6 () in
  let h = Cr_nets.Hierarchy.build m in
  let nt = Cr_nets.Netting_tree.build h in
  let parents, _ = dist_netting_parents ~via:(via_of (lossy_plan 3)) m in
  for i = 0 to Cr_nets.Hierarchy.top_level h - 1 do
    List.iter
      (fun x ->
        check_int
          (Printf.sprintf "parent of (%d, level %d) under faults" x i)
          (Cr_nets.Netting_tree.parent nt ~level:i x)
          parents.(i).(x))
      (Cr_nets.Hierarchy.net h i)
  done

let test_hardened_packing_converges () =
  let m = holey () in
  let g = Metric.graph m in
  let plain_radii = Cr_proto.Dist_radii.run g in
  let via = via_of (lossy_plan 4) in
  let hard_radii = Cr_proto.Dist_radii.run ~via g in
  check_bool "radii distances equal" true
    (plain_radii.Cr_proto.Dist_radii.distances
    = hard_radii.Cr_proto.Dist_radii.distances);
  List.iter
    (fun j ->
      let plain =
        Cr_proto.Dist_packing.run g
          ~distances:plain_radii.Cr_proto.Dist_radii.distances ~j
      in
      let hard =
        Cr_proto.Dist_packing.run ~via g
          ~distances:hard_radii.Cr_proto.Dist_radii.distances ~j
      in
      Alcotest.(check (list int))
        (Printf.sprintf "packing equal under faults at j=%d" j)
        plain.Cr_proto.Dist_packing.accepted
        hard.Cr_proto.Dist_packing.accepted)
    [ 1; 2 ]

let test_crash_recovery_converges () =
  let m = holey () in
  let g = Metric.graph m in
  let plan =
    Plan.make ~seed:5 ~drop:0.1
      ~crashes:
        [ { Plan.node = 3; down_at = 1.0; up_at = 8.0 };
          { Plan.node = 11; down_at = 2.0; up_at = 5.0 };
          { Plan.node = 11; down_at = 9.0; up_at = 12.0 } ]
      ()
  in
  let rt = Reliable.create ~plan () in
  let plain = Cr_proto.Dist_spt.run g ~root:0 in
  let hard = Cr_proto.Dist_spt.run ~via:(Reliable.runner rt) g ~root:0 in
  check_bool "dist equal across crash windows" true
    (plain.Cr_proto.Dist_spt.dist = hard.Cr_proto.Dist_spt.dist);
  check_bool "crash actually bit" true
    ((Reliable.totals rt).Reliable.faults.Network.crash_lost > 0)

let prop_hardened_election_equals_greedy =
  qcheck_case ~count:8 "hardened election = greedy on random graphs"
    QCheck2.Gen.(
      let* n = int_range 6 24 in
      let* seed = int_range 0 2_000 in
      let* fseed = int_range 0 1_000 in
      return (n, seed, fseed))
    (fun (n, seed, fseed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let g = Metric.graph m in
      let result =
        Cr_proto.Net_election.run ~via:(via_of (lossy_plan fseed)) g ~r:2.0
      in
      let reference =
        rnet_greedy m ~r:2.0 ~candidates:(List.init n Fun.id) ~seed:[]
      in
      result.Cr_proto.Net_election.net = reference)

(* ---- typed failure instead of hanging or failwith ---- *)

let test_retransmit_budget_exhausted () =
  (* edge 0-1 drops everything: the transport must give up with a typed
     error naming the protocol, not loop or return wrong tables *)
  let g = graph_of_edges 2 [ (0, 1, 1.0) ] in
  let plan = Plan.make ~seed:1 ~edge_drop:[ ((0, 1), 1.0) ] () in
  match Cr_proto.Dist_spt.run ~via:(via_of plan) g ~root:0 with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception Network.Protocol_error err ->
    Alcotest.(check string) "protocol name" "dist_spt" err.Network.protocol;
    check_bool "node identified" true (err.Network.node <> None);
    check_bool "detail mentions the budget" true
      (String.length err.Network.detail > 0)

(* ---- degraded-mode routing ---- *)

let build_simple m =
  let nt = Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:11 in
  let hl = Cr_core.Hier_labeled.build nt ~epsilon:0.25 in
  let ni =
    Cr_core.Simple_ni.build nt ~epsilon:0.25 ~naming
      ~underlying:(Cr_core.Hier_labeled.to_underlying hl)
  in
  (ni, naming)

(* Both name-independent schemes on one fixture (each over its paper
   underlying scheme), as (name, walk, walk_degraded). *)
let build_both m =
  let ni, naming = build_simple m in
  let nt = Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m) in
  let sfl = Cr_core.Scale_free_labeled.build nt ~epsilon:0.25 in
  let sfni =
    Cr_core.Scale_free_ni.build nt ~epsilon:0.25 ~naming
      ~underlying:(Cr_core.Scale_free_labeled.to_underlying sfl)
  in
  ( naming,
    [ ( "simple-ni",
        Cr_core.Ni_scheme.walk ni,
        Cr_core.Ni_scheme.walk_degraded ni );
      ( "sf-ni",
        Cr_core.Ni_scheme.walk (Cr_core.Scale_free_ni.scheme sfni),
        Cr_core.Ni_scheme.walk_degraded (Cr_core.Scale_free_ni.scheme sfni) )
    ] )

(* [walk] run on a fresh traced walker: the trace events and its result. *)
let traced ?failures m ~src walk =
  let ctx, events = collecting_context () in
  let w = Walker.create ~obs:ctx ?failures m ~start:src ~max_hops:100_000 in
  let result = walk w in
  (List.rev !events, result)

let test_failures_set () =
  let f = Failures.create ~edges:[ (1, 2); (4, 3) ] ~nodes:[ 7 ] () in
  check_bool "symmetric" true
    (Failures.edge_failed f 1 2 && Failures.edge_failed f 2 1
    && Failures.edge_failed f 3 4);
  check_bool "others fine" false (Failures.edge_failed f 1 3);
  check_int "edge count" 2 (Failures.edge_count f);
  check_bool "node" true (Failures.node_failed f 7);
  check_bool "empty is empty" true (Failures.is_empty Failures.none);
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Failures.create: self-loop edge") (fun () ->
      ignore (Failures.create ~edges:[ (2, 2) ] ()))

(* With an empty failure set, the degraded walk must be *the same walk*:
   same statuses, same costs, and the same trace events as the plain
   Algorithm 3 route. *)
let test_degraded_empty_equals_fault_free () =
  let m = grid6 () in
  let ni, naming = build_simple m in
  let pairs = Workload.sample_pairs ~n:(Metric.n m) ~count:80 ~seed:5 in
  let d =
    Stats.measure_degraded m
      (Cr_core.Ni_scheme.degraded_scheme ni ~failures:Failures.none)
      naming pairs
  in
  check_int "all delivered" d.Stats.routes d.Stats.delivered;
  check_int "no failovers" 0 d.Stats.reroutes_total;
  check_float "delivery rate" 1.0 (Stats.delivery_rate d);
  let base = Stats.measure_name_independent m
      (Cr_core.Simple_ni.to_scheme ni) naming pairs in
  check_bool "summary identical to fault-free" true
    (d.Stats.arrived = Some base);
  (* trace byte-identity on a single route, for both schemes *)
  let src, dst = List.nth pairs 3 in
  let dest_name = naming.Workload.name_of.(dst) in
  List.iter
    (fun (sname, walk, walk_degraded) ->
      let plain, () = traced m ~src (fun w -> walk w ~dest_name) in
      let degraded, (status, reroutes) =
        traced m ~src (fun w -> walk_degraded w ~dest_name)
      in
      check_bool (sname ^ ": status delivered") true
        (status = Scheme.Delivered);
      check_int (sname ^ ": no reroutes") 0 reroutes;
      check_bool (sname ^ ": trace events identical") true (plain = degraded))
    (snd (build_both m))

(* Under failures, [walk] runs the same failover loop as [walk_degraded]:
   on every route the degraded walk delivers, the plain walk emits the
   identical trace, Faults-tagged hops included, instead of raising
   [Blocked]. *)
let test_walk_fails_over_like_degraded () =
  let m = holey () in
  let n = Metric.n m in
  let naming, schemes = build_both m in
  let failures =
    Failures.create
      ~edges:(Plan.sample_edge_failures ~seed:3 ~rate:0.06 (Metric.graph m))
      ~nodes:(Plan.sample_node_failures ~seed:3 ~fraction:0.05 n)
      ()
  in
  let pairs = Workload.sample_pairs ~n ~count:120 ~seed:9 in
  List.iter
    (fun (sname, walk, walk_degraded) ->
      let rerouted = ref 0 in
      List.iter
        (fun (src, dst) ->
          if not (Failures.node_failed failures src) then begin
            let dest_name = naming.Workload.name_of.(dst) in
            let degraded, (status, _) =
              traced ~failures m ~src (fun w -> walk_degraded w ~dest_name)
            in
            if status <> Scheme.Undeliverable then begin
              if status = Scheme.Rerouted then incr rerouted;
              let plain, () =
                traced ~failures m ~src (fun w -> walk w ~dest_name)
              in
              check_bool
                (Printf.sprintf "%s (%d -> %d): trace identical" sname src dst)
                true (plain = degraded)
            end
          end)
        pairs;
      check_bool (sname ^ ": some delivered route failed over") true
        (!rerouted > 0))
    schemes

let test_degraded_outcomes_consistent () =
  let m = holey () in
  let ni, naming = build_simple m in
  let g = Metric.graph m in
  let failures =
    Failures.create
      ~edges:(Plan.sample_edge_failures ~seed:3 ~rate:0.06 g)
      ~nodes:(Plan.sample_node_failures ~seed:3 ~fraction:0.05 (Metric.n m))
      ()
  in
  let dg = Cr_core.Ni_scheme.degraded_scheme ni ~failures in
  let pairs = Workload.sample_pairs ~n:(Metric.n m) ~count:120 ~seed:9 in
  List.iter
    (fun (src, dst) ->
      let o = dg.Scheme.dg_route ~src ~dest_name:naming.Workload.name_of.(dst) in
      (match o.Scheme.d_status with
      | Scheme.Delivered ->
        check_int "delivered means no failover" 0 o.Scheme.d_reroutes
      | Scheme.Rerouted ->
        check_bool "rerouted means failovers" true (o.Scheme.d_reroutes > 0)
      | Scheme.Undeliverable -> ());
      if Failures.node_failed failures src then begin
        check_bool "failed source undeliverable" true
          (o.Scheme.d_status = Scheme.Undeliverable);
        check_float "failed source costs nothing" 0.0 o.Scheme.d_cost
      end;
      if Failures.node_failed failures dst then
        check_bool "failed destination undeliverable" true
          (o.Scheme.d_status = Scheme.Undeliverable))
    pairs;
  (* aggregate view is a partition and replays deterministically *)
  let d1 = Stats.measure_degraded m dg naming pairs in
  let d2 = Stats.measure_degraded m dg naming pairs in
  check_bool "deterministic" true (d1 = d2);
  check_int "statuses partition the routes" d1.Stats.routes
    (d1.Stats.delivered + d1.Stats.rerouted + d1.Stats.undeliverable)

let test_degraded_scale_free () =
  let m = grid6 () in
  let nt = Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:11 in
  let sfl = Cr_core.Scale_free_labeled.build nt ~epsilon:0.25 in
  let ni =
    Cr_core.Scale_free_ni.build nt ~epsilon:0.25 ~naming
      ~underlying:(Cr_core.Scale_free_labeled.to_underlying sfl)
  in
  let pairs = Workload.sample_pairs ~n:(Metric.n m) ~count:60 ~seed:5 in
  let d =
    Stats.measure_degraded m
      (Cr_core.Ni_scheme.degraded_scheme (Cr_core.Scale_free_ni.scheme ni)
         ~failures:Failures.none)
      naming pairs
  in
  check_float "empty failures deliver everything" 1.0 (Stats.delivery_rate d);
  let base = Stats.measure_name_independent m
      (Cr_core.Scale_free_ni.to_scheme ni) naming pairs in
  check_bool "summary identical to fault-free" true (d.Stats.arrived = Some base);
  let failures = Failures.create ~nodes:[ 14; 22 ] () in
  let d' =
    Stats.measure_degraded m
      (Cr_core.Ni_scheme.degraded_scheme (Cr_core.Scale_free_ni.scheme ni)
         ~failures)
      naming pairs
  in
  check_int "statuses partition the routes" d'.Stats.routes
    (d'.Stats.delivered + d'.Stats.rerouted + d'.Stats.undeliverable)

let suite =
  [ Alcotest.test_case "splitmix deterministic" `Quick
      test_splitmix_deterministic;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan hooks reproducible" `Quick
      test_plan_hooks_reproducible;
    Alcotest.test_case "failure samplers deterministic" `Quick
      test_plan_samplers_deterministic;
    Alcotest.test_case "null plan identical to no plan" `Quick
      test_null_plan_identity;
    Alcotest.test_case "hardened SPT converges" `Quick
      test_hardened_spt_converges;
    Alcotest.test_case "hardened hierarchy converges" `Quick
      test_hardened_hierarchy_converges;
    Alcotest.test_case "hardened netting converges" `Quick
      test_hardened_netting_converges;
    Alcotest.test_case "hardened packing converges" `Quick
      test_hardened_packing_converges;
    Alcotest.test_case "crash-recover converges" `Quick
      test_crash_recovery_converges;
    prop_hardened_election_equals_greedy;
    Alcotest.test_case "retransmit budget exhausted is typed" `Quick
      test_retransmit_budget_exhausted;
    Alcotest.test_case "failure sets" `Quick test_failures_set;
    Alcotest.test_case "degraded = fault-free on empty failures" `Quick
      test_degraded_empty_equals_fault_free;
    Alcotest.test_case "degraded outcomes consistent" `Quick
      test_degraded_outcomes_consistent;
    Alcotest.test_case "degraded scale-free scheme" `Quick
      test_degraded_scale_free;
    Alcotest.test_case "walk fails over like walk_degraded" `Quick
      test_walk_fails_over_like_degraded ]
