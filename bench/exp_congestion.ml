(* E12 — congestion: how evenly each scheme spreads traffic. Route a fixed
   all-to-all(-sampled) workload through Walker with a Cr_obs.Cost
   accumulator, and report both hotspot views: the busiest node (how many
   routes visit it) and the busiest *edge* (how many routes traverse it —
   the CONGEST measure E19 applies to the constructions). Spanning-tree
   routing funnels everything through the root; the paper's schemes keep
   hotspots near the shortest-path baseline. (Not a claim from the paper —
   an operational property practitioners ask about; the walker's per-edge
   accounting makes it free to measure.) *)

open Common
module Metric = Cr_metric.Metric
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks
module Cost = Cr_obs.Cost
module Route_trace = Cr_core.Route_trace
module Sfl = Cr_core.Scale_free_labeled
module Hier = Cr_core.Hier_labeled

let load_stats n trails =
  let load = Array.make n 0 in
  List.iter
    (fun trail ->
      (* count each route once per node it visits *)
      List.iter
        (fun v -> load.(v) <- load.(v) + 1)
        (List.sort_uniq Int.compare trail))
    trails;
  let max_load = Array.fold_left max 0 load in
  let avg =
    float_of_int (Array.fold_left ( + ) 0 load) /. float_of_int n
  in
  (max_load, avg)

(* Route the whole workload with one shared Cost accumulator, so its
   per-edge table aggregates the scheme's entire traffic; each route's
   node sequence is read back from its hop events. *)
let route_all m pairs route =
  let cost = Cost.create () in
  let trails =
    List.map
      (fun (src, dst) ->
        let events = Sinks.Memory.create () in
        let obs = Trace.make (Sinks.Memory.sink events) in
        let w = Walker.create ~obs ~cost m ~start:src ~max_hops:1_000_000 in
        route w dst;
        Route_trace.nodes ~src (Sinks.Memory.events events))
      pairs
  in
  (trails, cost)

let run () =
  let inst =
    instance "holey-12x12"
      (Cr_graphgen.Grid.with_holes ~side:12 ~hole_fraction:0.25 ~seed:7)
  in
  let m = inst.metric in
  let n = Metric.n m in
  let pairs = Workload.sample_pairs ~n ~count:1_500 ~seed:41 in
  let shortest =
    route_all m pairs (fun w dst -> Walker.walk_shortest_path w dst)
  in
  let sfl = scale_free_labeled inst ~epsilon:default_epsilon in
  let labeled =
    route_all m pairs (fun w dst ->
        Sfl.walk sfl w ~dest_label:(Sfl.label sfl dst))
  in
  let hier = hier_labeled inst ~epsilon:default_epsilon in
  let hier_trails =
    route_all m pairs (fun w dst ->
        Hier.walk hier w ~dest_label:(Hier.label hier dst))
  in
  (* via-root trails: every route detours through node 0 — an upper bound
     emulation of root-centered (spanning-tree/landmark-style) designs *)
  let spt_trails =
    route_all m pairs (fun w dst ->
        Walker.walk_shortest_path w 0;
        Walker.walk_shortest_path w dst)
  in
  print_header
    "E12 (congestion): route load, 1500 sampled routes (holey grid)"
    [ "scheme"; "node hotspot"; "edge hotspot"; "avg node load";
      "hotspot/avg" ];
  List.iter
    (fun (name, (trails, cost)) ->
      let max_load, avg = load_stats n trails in
      let s = Cost.summary cost in
      print_row
        [ cell "%-28s" name;
          cell "%6d" max_load;
          cell "%6d" s.Cost.max_edge_messages;
          cell "%8.1f" avg;
          cell "%6.1f" (float_of_int max_load /. avg) ])
    [ ("shortest paths (ideal)", shortest);
      ("hier-labeled (Lemma 3.1)", hier_trails);
      ("scale-free labeled (Thm 1.2)", labeled);
      ("via-root (tree-style upper bnd)", spt_trails) ];
  print_newline ();
  print_endline
    "Shape: the labeled schemes' load profile is indistinguishable from the";
  print_endline
    "shortest-path ideal (they follow shortest paths almost everywhere),";
  print_endline
    "while any root-centered structure concentrates every route on one node."
