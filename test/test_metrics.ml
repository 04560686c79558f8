(* Tests for the Cr_obs.Metrics registry: instrument semantics, typed-name
   discipline, deterministic snapshots and JSON, and the Trace.sink
   adapter folding an event stream (driven by a counting clock, so the
   expected numbers are exact). *)

open Helpers
module Trace = Cr_obs.Trace
module Metrics = Cr_obs.Metrics

let test_counters_and_gauges () =
  let reg = Metrics.create () in
  Metrics.inc reg "hops" 1.0;
  Metrics.inc reg "hops" 2.5;
  Metrics.set reg "bits" 10.0;
  Metrics.set reg "bits" 7.0;
  (match Metrics.find reg "hops" with
  | Some (Metrics.Counter v) -> check_float "counter sums" 3.5 v
  | _ -> Alcotest.fail "hops should be a counter");
  (match Metrics.find reg "bits" with
  | Some (Metrics.Gauge v) -> check_float "gauge keeps last" 7.0 v
  | _ -> Alcotest.fail "bits should be a gauge");
  check_bool "missing name" true (Metrics.find reg "nope" = None);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.inc: negative increment") (fun () ->
      Metrics.inc reg "hops" (-1.0))

let test_kind_conflicts () =
  let reg = Metrics.create () in
  Metrics.inc reg "x" 1.0;
  Alcotest.check_raises "counter as gauge"
    (Invalid_argument "Metrics: x is a counter, not a gauge") (fun () ->
      Metrics.set reg "x" 1.0);
  Alcotest.check_raises "counter as histogram"
    (Invalid_argument "Metrics: x is a counter, not a histogram") (fun () ->
      Metrics.observe reg "x" 1.0)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let buckets = [| 1.0; 2.0; 4.0 |] in
  Metrics.observe reg ~buckets "h" 0.5;
  (* boundary: a value equal to a bound lands in that bucket *)
  Metrics.observe reg ~buckets "h" 2.0;
  (* above every bound: the implicit overflow slot *)
  Metrics.observe reg "h" 100.0;
  (match Metrics.find reg "h" with
  | Some (Metrics.Histogram { buckets = b; counts; count; sum }) ->
    check_bool "bounds kept" true (b = [| 1.0; 2.0; 4.0 |]);
    check_bool "per-bucket counts" true (counts = [| 1; 1; 0; 1 |]);
    check_int "total count" 3 count;
    check_float "sum" 102.5 sum
  | _ -> Alcotest.fail "h should be a histogram");
  Alcotest.check_raises "conflicting bounds"
    (Invalid_argument "Metrics.observe: h: conflicting bucket bounds")
    (fun () -> Metrics.observe reg ~buckets:[| 1.0; 3.0 |] "h" 1.0);
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Metrics.observe: e: empty buckets") (fun () ->
      Metrics.observe reg ~buckets:[||] "e" 1.0);
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Metrics.observe: d: buckets not increasing") (fun () ->
      Metrics.observe reg ~buckets:[| 2.0; 2.0 |] "d" 1.0)

let test_snapshot_sorted () =
  let reg = Metrics.create () in
  List.iter (fun n -> Metrics.inc reg n 1.0) [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list string))
    "snapshot sorted by name"
    [ "alpha"; "mid"; "zeta" ]
    (List.map fst (Metrics.snapshot reg))

let test_to_json_golden () =
  let reg = Metrics.create () in
  Metrics.inc reg "route.hops" 3.0;
  Metrics.set reg "bits.total" 42.5;
  Metrics.observe reg ~buckets:[| 1.0; 2.0 |] "cost" 1.5;
  Alcotest.(check string)
    "deterministic JSON"
    "{\"bits.total\":{\"kind\":\"gauge\",\"value\":42.5},\
     \"cost\":{\"kind\":\"histogram\",\"count\":1,\"sum\":1.5,\
     \"le\":[1,2],\"counts\":[0,1,0]},\
     \"route.hops\":{\"kind\":\"counter\",\"value\":3}}"
    (Metrics.to_json reg)

(* Two registries fed the same updates in different orders render the same
   JSON: snapshots are a function of contents, not of insertion order. *)
let test_order_independent_json () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.inc a "x" 1.0;
  Metrics.set a "y" 2.0;
  Metrics.set b "y" 2.0;
  Metrics.inc b "x" 1.0;
  Alcotest.(check string) "same JSON" (Metrics.to_json a) (Metrics.to_json b)

(* Feed a hand-built event stream through the Trace adapter with a
   counting clock: every folding rule of the .mli lands where documented. *)
let test_sink_folding () =
  let reg = Metrics.create () in
  let ctx = Trace.make ~clock:(Trace.counting_clock ()) (Metrics.sink reg) in
  Trace.counter ctx "table.bits" 128.0;
  Trace.counter ctx "table.bits" 96.0;
  (* absolute values: last wins *)
  Trace.span ctx "build" (fun () ->
      Trace.hop ctx ~kind:Trace.Edge ~src:0 ~dst:1 ~cost:2.0 ~total:2.0
        ~phase:(Trace.Zoom 3);
      Trace.hop ctx ~kind:Trace.Edge ~src:1 ~dst:2 ~cost:1.0 ~total:3.0
        ~phase:Trace.Deliver);
  Trace.emit ctx (Trace.Mark { name = "ignored" });
  Trace.message ctx ~node:5 ~round:2 ~time:1.0;
  let counter name expected =
    match Metrics.find reg name with
    | Some (Metrics.Counter v) -> check_float name expected v
    | _ -> Alcotest.failf "%s should be a counter" name
  in
  (match Metrics.find reg "table.bits" with
  | Some (Metrics.Gauge v) -> check_float "trace counter -> gauge" 96.0 v
  | _ -> Alcotest.fail "table.bits should be a gauge");
  counter "route.hops" 2.0;
  counter "route.hops.zoom" 1.0;
  (* levels collapse *)
  counter "route.hops.deliver" 1.0;
  counter "route.cost.zoom" 2.0;
  counter "route.cost.deliver" 1.0;
  counter "span.build.count" 1.0;
  (* counting clock: open at t=2, two hops, close at t=5 *)
  counter "span.build.seconds" 3.0;
  counter "network.delivered" 1.0;
  (match Metrics.find reg "route.hop_cost" with
  | Some (Metrics.Histogram { count; sum; _ }) ->
    check_int "hop_cost count" 2 count;
    check_float "hop_cost sum" 3.0 sum
  | _ -> Alcotest.fail "route.hop_cost should be a histogram");
  (* unmatched close is ignored, not corrupting *)
  let sink = Metrics.sink reg in
  sink.Trace.emit
    { Trace.ts = 9.0; body = Trace.Span_close { name = "never-opened" } };
  counter "span.build.count" 1.0

let suite =
  [ Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "kind conflicts raise" `Quick test_kind_conflicts;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "to_json golden" `Quick test_to_json_golden;
    Alcotest.test_case "order-independent JSON" `Quick
      test_order_independent_json;
    Alcotest.test_case "trace sink folding" `Quick test_sink_folding ]
