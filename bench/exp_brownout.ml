(* E21 — brownout: skewed Zipf traffic routed through a partially failed
   network, watched live.

   E18c measures degraded routing under a *uniform* traffic matrix; real
   deployments are hit by Zipf-skewed demand (Krioukov, Fall & Yang's
   critique of compact routing assumes exactly this), where a few hot
   destinations dominate and a few edges near them carry most of the
   load. This experiment drives the Theorem 1.4 scheme with Zipf(alpha)
   pairs over the E18 failure tiers and streams every route through a
   Cr_obs.Live accumulator: per-window delivery rate and stretch
   quantiles, per-edge utilization, and Space-Saving heavy hitters. The
   committed baseline pins the whole timeline.

   Everything is sequential and keyed: Zipf draws through the splitmix
   key tree, failures from the E18 seeds, one walker per pair on the
   calling domain — so every recorded number (and every Live window) is
   byte-identical across CR_DOMAINS. *)

open Common
module Live = Cr_obs.Live
module Cost = Cr_obs.Cost
module Plan = Cr_fault.Plan
module Failures = Cr_sim.Failures
module Ni_scheme = Cr_core.Ni_scheme
module Walker = Cr_sim.Walker

let zipf_seed = 47
let alpha = 1.0
let window = 250
let depth = 8
let top_k = 3

(* The E18c failure ladder, restricted to the tiers whose delivery rate
   stays interesting under skew: intact, light edge loss, and the mixed
   brownout tier. Same seeds as E18, so the failed sets are identical. *)
let tiers = [ (0.0, 0.0); (0.01, 0.0); (0.02, 0.02) ]

(* One tier: route every Zipf pair sequentially, with the walker feeding
   both the Cost ledger (the conservation oracle) and the Live windows. *)
let run_tier inst ni naming pairs ~edge_rate ~node_fraction =
  let m = inst.metric in
  let n = Cr_metric.Metric.n m in
  let g = Cr_metric.Metric.graph m in
  let edges = Plan.sample_edge_failures ~seed:23 ~rate:edge_rate g in
  let nodes = Plan.sample_node_failures ~seed:29 ~fraction:node_fraction n in
  let failures = Failures.create ~edges ~nodes () in
  let live = Live.create ~window ~depth ~k:top_k () in
  let cost = Cost.create () in
  let budget = Walker.ni_budget n in
  List.iter
    (fun (src, dst) ->
      if Live.enabled live then begin
        Live.tick live;
        let dist = Cr_metric.Metric.dist m src dst in
        if Failures.node_failed failures src then
          Live.record live ~src ~dst ~status:Live.Undeliverable ~dist
            ~cost:0.0 ~hops:0
        else begin
          let w =
            Walker.create ~failures ~cost ~live m ~start:src ~max_hops:budget
          in
          let dest_name = naming.Cr_sim.Workload.name_of.(dst) in
          let status, _reroutes = Ni_scheme.walk_degraded ni w ~dest_name in
          Live.record live ~src ~dst ~status ~dist
            ~cost:(Walker.cost w) ~hops:(Walker.hops w)
        end
      end)
    pairs;
  (live, cost, failures)

let ledger_edge_messages cost =
  List.fold_left
    (fun acc (e : Cost.edge_load) -> acc + e.Cost.messages)
    0 (Cost.edge_loads cost)

let hot_metrics live =
  let dsts =
    List.concat
      (List.mapi
         (fun i (h : Live.hot) ->
           [ (Printf.sprintf "hot.dst.%d" (i + 1), Report.Int h.Live.hot_key);
             (Printf.sprintf "hot.dst.%d.count" (i + 1),
              Report.Int h.Live.hot_count) ])
         (Live.hot_dsts live))
  in
  let edges =
    List.concat
      (List.mapi
         (fun i (e : Live.edge_load) ->
           [ (Printf.sprintf "hot.edge.%d.u" (i + 1), Report.Int e.Live.u);
             (Printf.sprintf "hot.edge.%d.v" (i + 1), Report.Int e.Live.v);
             (Printf.sprintf "hot.edge.%d.count" (i + 1),
              Report.Int e.Live.messages) ])
         (Live.hot_edges live))
  in
  dsts @ edges

let record_tier inst live cost failures ~edge_rate ~node_fraction =
  let t = Live.totals live in
  record ~family:inst.name ~scheme:"brownout-simple-ni"
    (instance_metrics inst
    @ [ ("zipf.alpha", Report.Float alpha);
        ("fault.edge_rate", Report.Float edge_rate);
        ("fault.node_fraction", Report.Float node_fraction);
        ("failures.edges", Report.Int (Failures.edge_count failures));
        ("failures.nodes", Report.Int (Failures.node_count failures));
        ("routes", Report.Int t.Live.t_routes);
        ("routes.delivered", Report.Int t.Live.t_delivered);
        ("routes.rerouted", Report.Int t.Live.t_rerouted);
        ("routes.undeliverable", Report.Int t.Live.t_undeliverable);
        ("delivery.rate", Report.Float t.Live.t_delivery_rate);
        ("stretch.p50", Report.Float t.Live.t_stretch_p50);
        ("stretch.p95", Report.Float t.Live.t_stretch_p95);
        ("stretch.p99", Report.Float t.Live.t_stretch_p99);
        ("stretch.max", Report.Float t.Live.t_stretch_max);
        ("live.edge_messages", Report.Int t.Live.t_edge_messages);
        ("live.util.max", Report.Int t.Live.t_util_max);
        ("live.windows", Report.Int (List.length (Live.windows live)));
        ("cost.edge_messages", Report.Int (ledger_edge_messages cost)) ]
    @ hot_metrics live);
  List.iter
    (fun w ->
      record ~family:inst.name
        ~scheme:
          (Printf.sprintf "windows-e%.2f-c%.2f" edge_rate node_fraction)
        (Report.of_live_window w))
    (Live.windows live)

let hot_cell live =
  match Live.hot_dsts live with
  | [] -> "-"
  | h :: _ -> Printf.sprintf "%d:%d" h.Live.hot_key h.Live.hot_count

let hot_edge_cell live =
  match Live.hot_edges live with
  | [] -> "-"
  | e :: _ -> Printf.sprintf "%d-%d:%d" e.Live.u e.Live.v e.Live.messages

let run () =
  print_header
    (Printf.sprintf
       "E21 (brownout): Zipf(%.1f) traffic, Thm 1.4 failover, live windows"
       alpha)
    [ "family"; "edges"; "nodes"; "rate"; "p50"; "p99"; "util.max";
      "hot dst"; "hot edge" ];
  List.iter
    (fun inst ->
      let n = Cr_metric.Metric.n inst.metric in
      let naming = naming_of inst in
      let pairs =
        Cr_sim.Workload.zipf_pairs ~n ~alpha ~count:pairs_budget
          ~seed:zipf_seed
      in
      let ni = simple_ni inst ~epsilon:default_epsilon ~naming in
      let renders = ref [] in
      List.iter
        (fun (edge_rate, node_fraction) ->
          let live, cost, failures =
            run_tier inst ni naming pairs ~edge_rate ~node_fraction
          in
          record_tier inst live cost failures ~edge_rate ~node_fraction;
          let t = Live.totals live in
          print_row
            [ cell "%-10s" inst.name;
              cell "%5d" (Failures.edge_count failures);
              cell "%5d" (Failures.node_count failures);
              cell "%5.3f" t.Live.t_delivery_rate;
              cell "%6.3f" t.Live.t_stretch_p50;
              cell "%6.3f" t.Live.t_stretch_p99;
              cell "%8d" t.Live.t_util_max;
              cell "%-12s" (hot_cell live);
              cell "%-14s" (hot_edge_cell live) ];
          if edge_rate > 0.0 && node_fraction > 0.0 then
            renders := Live.render live :: !renders)
        tiers;
      (* The brownout tier's full live view: the timeline a console
         operator would watch. *)
      List.iter
        (fun r ->
          Printf.printf "\n-- %s, brownout tier (live view) --\n%s" inst.name
            r)
        (List.rev !renders))
    (large_families ~pool:(pool ()) ());
  print_newline ();
  print_endline
    "Shape: Zipf skew concentrates load — a handful of destinations and the";
  print_endline
    "edges beside them absorb a large share of all messages, so per-window";
  print_endline
    "delivery under failures tracks *which* hot destinations the failed set";
  print_endline
    "happens to cut off, not just how much of the graph is down. The Live";
  print_endline
    "edge totals reconcile exactly with the Cost ledger (conservation), and";
  print_endline
    "the whole timeline is reproduced bit-for-bit at any CR_DOMAINS."
