(* Tests for the observability layer: sinks, span discipline of the
   instrumented constructions, phase accounting of traced routes, the
   simulator's delivery metrics, and a golden trace pinning the JSONL
   encoding byte-for-byte. *)

open Helpers
module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks
module Chrome = Cr_obs.Chrome
module Workload = Cr_sim.Workload
module Walker = Cr_sim.Walker
module Network = Cr_proto.Network
module Route_trace = Cr_core.Route_trace
module Scale_free_labeled = Cr_core.Scale_free_labeled
module Scale_free_ni = Cr_core.Scale_free_ni

(* Span stack discipline: every close matches the most recent open, and
   nothing stays open — the invariant the construction spans keep. *)
let balanced_spans events =
  let rec go stack = function
    | [] -> stack = []
    | { Trace.body = Span_open { name }; _ } :: rest -> go (name :: stack) rest
    | { Trace.body = Span_close { name }; _ } :: rest -> (
      match stack with
      | top :: stack' when top = name -> go stack' rest
      | _ -> false)
    | _ :: rest -> go stack rest
  in
  go [] events

let counting_ctx buf = Trace.make ~clock:(Trace.counting_clock ()) (Sinks.Memory.sink buf)

let test_memory_round_trip () =
  let buf = Sinks.Memory.create () in
  let ctx = counting_ctx buf in
  Trace.counter ctx "c" 2.5;
  Trace.emit ctx (Trace.Mark { name = "m" });
  Trace.span ctx "s" (fun () ->
      Trace.hop ctx ~kind:Trace.Edge ~src:0 ~dst:1 ~cost:1.0 ~total:1.0
        ~phase:(Trace.Zoom 3));
  Trace.message ctx ~node:7 ~round:2 ~time:2.25;
  let expected =
    [ { Trace.ts = 0.0; body = Trace.Counter { name = "c"; value = 2.5 } };
      { Trace.ts = 1.0; body = Trace.Mark { name = "m" } };
      { Trace.ts = 2.0; body = Trace.Span_open { name = "s" } };
      { Trace.ts = 3.0;
        body =
          Trace.Hop
            { kind = Trace.Edge; src = 0; dst = 1; cost = 1.0; total = 1.0;
              phase = Trace.Zoom 3 } };
      { Trace.ts = 4.0; body = Trace.Span_close { name = "s" } };
      { Trace.ts = 5.0; body = Trace.Message { node = 7; round = 2; time = 2.25 } } ]
  in
  check_bool "events round-trip" true (Sinks.Memory.events buf = expected);
  check_int "length" 6 (List.length (Sinks.Memory.events buf));
  check_int "dropped" 0 (Sinks.Memory.dropped buf)

let test_memory_ring_capacity () =
  let buf = Sinks.Memory.create ~capacity:4 () in
  let ctx = counting_ctx buf in
  for i = 0 to 9 do
    Trace.emit ctx (Trace.Mark { name = string_of_int i })
  done;
  check_int "length capped" 4 (List.length (Sinks.Memory.events buf));
  check_int "dropped" 6 (Sinks.Memory.dropped buf);
  let names =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.body with Trace.Mark { name } -> name | _ -> "?")
      (Sinks.Memory.events buf)
  in
  Alcotest.(check (list string)) "keeps newest, oldest-first"
    [ "6"; "7"; "8"; "9" ] names;
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Sinks.Memory.create: capacity <= 0")
    (fun () -> ignore (Sinks.Memory.create ~capacity:0 ()))

(* exact-capacity boundary: a ring filled to exactly its capacity has
   dropped nothing; one more event evicts exactly the oldest. *)
let test_memory_ring_exact_boundary () =
  let buf = Sinks.Memory.create ~capacity:3 () in
  let ctx = counting_ctx buf in
  let names () =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.body with Trace.Mark { name } -> name | _ -> "?")
      (Sinks.Memory.events buf)
  in
  for i = 0 to 2 do
    Trace.emit ctx (Trace.Mark { name = string_of_int i })
  done;
  check_int "full at capacity" 3 (List.length (Sinks.Memory.events buf));
  check_int "nothing dropped yet" 0 (Sinks.Memory.dropped buf);
  Alcotest.(check (list string)) "all retained in order" [ "0"; "1"; "2" ]
    (names ());
  Trace.emit ctx (Trace.Mark { name = "3" });
  check_int "still at capacity" 3 (List.length (Sinks.Memory.events buf));
  check_int "exactly one dropped" 1 (Sinks.Memory.dropped buf);
  Alcotest.(check (list string)) "oldest evicted first" [ "1"; "2"; "3" ]
    (names ())

let test_json_float_tokens () =
  let check_str = Alcotest.(check string) in
  check_str "nan" "\"NaN\"" (Sinks.json_float Float.nan);
  check_str "inf" "\"Infinity\"" (Sinks.json_float Float.infinity);
  check_str "neg inf" "\"-Infinity\"" (Sinks.json_float Float.neg_infinity);
  check_str "integral" "3" (Sinks.json_float 3.0);
  check_str "negative integral" "-2" (Sinks.json_float (-2.0));
  check_str "fractional" "2.5" (Sinks.json_float 2.5);
  check_str "string escaping" "\"a\\\"b\\\\c\"" (Sinks.json_string "a\"b\\c")

let test_null_context_silent () =
  check_bool "null disabled" false (Trace.enabled Trace.null);
  (* span still runs the thunk and returns its value when disabled *)
  check_int "span passthrough" 41 (Trace.span Trace.null "s" (fun () -> 41));
  (* resolve falls back to the global context (null by default) *)
  check_bool "resolve default" false (Trace.enabled (Trace.resolve None))

let test_construction_spans_balanced () =
  let buf = Sinks.Memory.create () in
  let obs = counting_ctx buf in
  let m = geo48 () in
  let nt = Cr_nets.Netting_tree.build ~obs (Cr_nets.Hierarchy.build ~obs m) in
  let hl = Cr_core.Hier_labeled.build ~obs nt ~epsilon:0.5 in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let (_ : Cr_core.Simple_ni.t) =
    Cr_core.Simple_ni.build ~obs nt ~epsilon:0.5 ~naming
      ~underlying:(Cr_core.Hier_labeled.to_underlying hl)
  in
  let (_ : Cr_core.Scale_free_labeled.t) =
    Cr_core.Scale_free_labeled.build ~obs nt ~epsilon:0.5
  in
  let events = Sinks.Memory.events buf in
  check_bool "spans balanced" true (balanced_spans events);
  let span_names =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.body with
        | Trace.Span_open { name } -> Some name
        | _ -> None)
      events
  in
  List.iter
    (fun name -> check_bool name true (List.mem name span_names))
    [ "hierarchy.build"; "netting_tree.build"; "hier_labeled.build";
      "simple_ni.build"; "scale_free_labeled.build" ];
  let has_counter name =
    List.exists
      (fun (e : Trace.event) ->
        match e.Trace.body with
        | Trace.Counter { name = n; _ } -> n = name
        | _ -> false)
      events
  in
  List.iter
    (fun name -> check_bool name true (has_counter name))
    [ "hierarchy.levels"; "simple_ni.table_bits.max";
      "scale_free_labeled.table_bits.avg" ]

let test_phase_sums_match_walker () =
  let m = geo48 () in
  let nt = Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let pairs = Route_trace.sample_pairs m ~count:8 ~seed:17 in
  let check_routes routes =
    List.iter
      (fun (r : Route_trace.t) ->
        check_int "no unphased hops" 0 (Route_trace.unphased_hops r);
        Alcotest.(check (float 1e-6))
          "phase costs sum to walker cost" r.Route_trace.cost
          (Route_trace.phase_cost_total r);
        check_bool "route events balanced" true
          (balanced_spans r.Route_trace.events))
      routes
  in
  check_routes (Route_trace.fig1_simple_ni nt ~naming ~pairs);
  let sfni =
    let sfl = Scale_free_labeled.build nt ~epsilon:0.5 in
    Scale_free_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Scale_free_labeled.to_underlying sfl)
  in
  check_routes
    (List.map
       (fun (src, dst) ->
         Route_trace.capture m ~src ~dst ~walk:(fun w ->
             Cr_core.Ni_scheme.walk (Scale_free_ni.scheme sfni) w
               ~dest_name:naming.Workload.name_of.(dst)))
       pairs);
  check_routes (Route_trace.fig2_scale_free_labeled nt ~pairs)

let test_walker_phase_scoping () =
  let m = triangle () in
  let buf = Sinks.Memory.create () in
  let obs = counting_ctx buf in
  let w = Walker.create ~obs m ~start:0 ~max_hops:10 in
  (* outer phase wins over nested with_phase *)
  Walker.with_phase w (Trace.Ball_search 1) (fun () ->
      Walker.with_phase w Trace.Net_phase (fun () -> Walker.step w 1));
  check_bool "phase restored" true (Walker.phase w = Trace.Unphased);
  Walker.teleport w 2 ~cost:1.0;
  let phases =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.body with
        | Trace.Hop { phase; kind; _ } -> Some (kind, phase)
        | _ -> None)
      (Sinks.Memory.events buf)
  in
  check_bool "nested hop keeps outer tag" true
    (phases = [ (Trace.Edge, Trace.Ball_search 1); (Trace.Jump, Trace.Teleport) ])

let test_network_metrics () =
  (* token relayed 0 -> 1 -> 2 -> 3 along a unit path: one delivery per
     node, one per round *)
  let g = graph_of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  let buf = Sinks.Memory.create () in
  let obs = counting_ctx buf in
  let net = Network.create ~obs g ~init:(fun _ -> ()) in
  let handler (actions : unit Network.actions) ~self state () =
    if self < 3 then actions.Network.send (self + 1) ();
    state
  in
  Network.inject net ~dst:0 ();
  let stats = Network.run net ~handler ~max_messages:100 in
  check_int "messages" 4 stats.Network.messages;
  Alcotest.(check (array int)) "deliveries" [| 1; 1; 1; 1 |]
    (Network.deliveries net);
  let messages, counters =
    List.fold_left
      (fun (m, c) (e : Trace.event) ->
        match e.Trace.body with
        | Trace.Message _ -> (m + 1, c)
        | Trace.Counter { name; value } -> (m, (name, value) :: c)
        | _ -> (m, c))
      (0, []) (Sinks.Memory.events buf)
  in
  check_int "message events" 4 messages;
  check_float "messages counter" 4.0 (List.assoc "network.messages" counters);
  check_float "makespan counter" 3.0 (List.assoc "network.makespan" counters)

(* Golden trace: the Figure 1 JSONL for grid-10x10 with the standard seeds
   (naming 42, pairs 17) is byte-reproducible. Refresh the golden file
   after an intentional trace-format change with `dune build @golden`
   (regenerates via test/gen_golden.ml and diffs) followed by
   `dune promote`. *)
let test_golden_fig1_grid10 () =
  let m = Metric.of_graph (Cr_graphgen.Grid.square ~side:10) in
  let nt = Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let pairs = Route_trace.sample_pairs m ~count:6 ~seed:17 in
  let produced =
    Route_trace.to_jsonl (Route_trace.fig1_simple_ni nt ~naming ~pairs)
  in
  let golden =
    let ic = open_in_bin "golden/grid-10x10.fig1.jsonl" in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check string) "byte-identical JSONL" golden produced

let test_chrome_export_shape () =
  let m = triangle () in
  let r =
    Route_trace.capture m ~src:0 ~dst:2 ~walk:(fun w ->
        Walker.with_phase w Trace.Deliver (fun () ->
            Walker.walk_shortest_path w 2))
  in
  let chrome = Route_trace.to_chrome [ r ] in
  (* minimal well-formedness: it is one JSON object with a traceEvents
     array containing our route mark and phase slice *)
  let contains needle =
    let n = String.length needle and h = String.length chrome in
    let rec go i = i + n <= h && (String.sub chrome i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents" true (contains "\"traceEvents\":[");
  check_bool "route mark" true (contains "\"name\":\"route 0->2\"");
  check_bool "phase slice" true (contains "\"name\":\"deliver\"")

(* nested spans must emit well-nested B/B/E/E pairs on the build lane *)
let test_chrome_nested_spans () =
  let buf = Sinks.Memory.create () in
  let ctx = counting_ctx buf in
  Trace.span ctx "outer" (fun () -> Trace.span ctx "inner" (fun () -> ()));
  let chrome = Chrome.to_string (Sinks.Memory.events buf) in
  let index_of needle =
    let n = String.length needle and h = String.length chrome in
    let rec go i =
      if i + n > h then Alcotest.failf "missing %S in chrome export" needle
      else if String.sub chrome i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let b_outer = index_of "{\"name\":\"outer\",\"cat\":\"build\",\"ph\":\"B\"" in
  let b_inner = index_of "{\"name\":\"inner\",\"cat\":\"build\",\"ph\":\"B\"" in
  let e_inner = index_of "{\"name\":\"inner\",\"cat\":\"build\",\"ph\":\"E\"" in
  let e_outer = index_of "{\"name\":\"outer\",\"cat\":\"build\",\"ph\":\"E\"" in
  check_bool "open order outer<inner" true (b_outer < b_inner);
  check_bool "inner closes before outer" true (b_inner < e_inner);
  check_bool "LIFO close order" true (e_inner < e_outer)

let suite =
  [ Alcotest.test_case "memory sink round-trip" `Quick test_memory_round_trip;
    Alcotest.test_case "memory ring capacity" `Quick test_memory_ring_capacity;
    Alcotest.test_case "memory ring exact boundary" `Quick
      test_memory_ring_exact_boundary;
    Alcotest.test_case "json_float non-finite tokens" `Quick
      test_json_float_tokens;
    Alcotest.test_case "null context silent" `Quick test_null_context_silent;
    Alcotest.test_case "construction spans balanced" `Quick
      test_construction_spans_balanced;
    Alcotest.test_case "phase sums match walker" `Quick
      test_phase_sums_match_walker;
    Alcotest.test_case "walker phase scoping" `Quick test_walker_phase_scoping;
    Alcotest.test_case "network metrics" `Quick test_network_metrics;
    Alcotest.test_case "golden fig1 grid-10x10" `Quick test_golden_fig1_grid10;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "chrome nested spans" `Quick test_chrome_nested_spans ]
