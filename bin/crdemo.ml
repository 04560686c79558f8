(* crdemo - command-line driver for the compact-routing library.

     crdemo inspect --family holey:12:0.25
     crdemo route   --family grid:10 --scheme sfni --src 0 --dst 99
     crdemo stats   --family geo:128:3 --scheme all --pairs 2000

   Family syntax (seeded generators take an optional trailing seed):
     grid:SIDE | holey:SIDE:FRac[:SEED] | geo:N:K[:SEED] | ring:N
     chain:N:BASE | star:LEAVES | tree:N:MAXDEG[:SEED] | cube:DIM
     lbtree:N:P:Q | geob:N:K[:SEED] (bucketed kNN, scales to 10^4+)
     | plaw:N:M[:SEED] (preferential attachment) *)

module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Ni_scheme = Cr_core.Ni_scheme
open Cmdliner

let parse_family spec =
  let fail () = invalid_arg "not a family spec (see --help)" in
  let int s = try int_of_string s with Failure _ -> fail () in
  let fl s = try float_of_string s with Failure _ -> fail () in
  match String.split_on_char ':' spec with
  | [ "grid"; side ] -> Cr_graphgen.Grid.square ~side:(int side)
  | "holey" :: side :: frac :: rest ->
    let seed = match rest with [ s ] -> int s | _ -> 7 in
    Cr_graphgen.Grid.with_holes ~side:(int side) ~hole_fraction:(fl frac)
      ~seed
  | "geo" :: n :: k :: rest ->
    let seed = match rest with [ s ] -> int s | _ -> 11 in
    Cr_graphgen.Geometric.knn ~n:(int n) ~k:(int k) ~seed
  | "geob" :: n :: k :: rest ->
    let seed = match rest with [ s ] -> int s | _ -> 11 in
    Cr_graphgen.Geometric.knn_bucketed ~n:(int n) ~k:(int k) ~seed
  | "plaw" :: n :: m :: rest ->
    let seed = match rest with [ s ] -> int s | _ -> 13 in
    Cr_graphgen.Power_law.preferential ~n:(int n) ~m:(int m) ~seed
  | [ "ring"; n ] -> Cr_graphgen.Path_like.ring ~n:(int n)
  | [ "chain"; n; base ] ->
    Cr_graphgen.Path_like.exponential_chain ~n:(int n) ~base:(fl base)
  | [ "star"; leaves ] -> Cr_graphgen.Path_like.star ~leaves:(int leaves)
  | "tree" :: n :: deg :: rest ->
    let seed = match rest with [ s ] -> int s | _ -> 9 in
    Cr_graphgen.Tree_gen.random_attachment ~n:(int n) ~max_degree:(int deg)
      ~seed
  | [ "cube"; dim ] -> Cr_graphgen.Hypercube.cube ~dim:(int dim)
  | [ "lbtree"; n; p; q ] ->
    Cr_lowerbound.Construction.graph
      (Cr_lowerbound.Construction.build ~n:(int n) ~p:(int p) ~q:(int q))
  | "file" :: rest ->
    (* paths may contain ':', so rejoin *)
    Cr_metric.Graph_io.load (String.concat ":" rest)
  | _ -> fail ()

(* A --family argument: the spec as typed and the graph it names. *)
type family = { spec : string; graph : Graph.t }

(* Every scheme needs a connected graph of two nodes or more; a spec that
   does not parse, a file that cannot be read or parsed, and a graph that
   fails that test are usage errors naming the spec (exit 124, as for any
   malformed option). Connectivity is a graph search, not a metric build,
   so [scale]'s sparse families stay cheap to check. *)
let family_conv =
  let parse spec =
    let error msg = Error (`Msg (Printf.sprintf "%S: %s" spec msg)) in
    match parse_family spec with
    | exception Invalid_argument msg -> error msg
    | exception Sys_error msg -> Error (`Msg msg) (* names the file *)
    | graph when Graph.n graph < 2 -> error "fewer than 2 nodes"
    | graph when not (Graph.is_connected graph) -> error "graph not connected"
    | graph -> Ok { spec; graph }
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf f.spec)

let family_arg =
  let doc = "Network family, e.g. grid:10, holey:12:0.25, geo:128:3, \
             ring:64, chain:32:2.0, lbtree:128:4:3, cube:6, \
             geob:16384:6 (bucketed kNN), plaw:10000:3 (preferential \
             attachment), file:PATH (edge-list text)." in
  Arg.(
    value
    & opt family_conv
        { spec = "grid:10"; graph = Cr_graphgen.Grid.square ~side:10 }
    & info [ "family"; "f" ] ~docv:"SPEC" ~doc)

let epsilon_arg =
  let doc = "Accuracy parameter in (0, 1)." in
  Arg.(value & opt float 0.5 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc)

let seed_arg =
  let doc = "Seed for the node naming / workload." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

type scheme_kind = Hier | Sfl | Simple | Sfni | Ft | St

(* One table parses and prints a scheme; cmdliner's [enum] prints the
   last name listed for a value, so each alias precedes its canonical
   name. *)
let scheme_conv =
  Arg.enum
    [ ("hier", Hier); ("labeled", Sfl); ("sfl", Sfl); ("simple", Simple);
      ("ni", Sfni); ("sfni", Sfni); ("full-table", Ft); ("ft", Ft);
      ("spanning-tree", St); ("st", St) ]

let scheme_arg =
  let doc = "Scheme: hier (Lemma 3.1), sfl (Thm 1.2), simple (Thm 1.4), \
             sfni (Thm 1.1), ft (full table), st (spanning tree)." in
  Arg.(value & opt scheme_conv Sfni & info [ "scheme"; "s" ] ~docv:"NAME" ~doc)

let load family =
  let metric = Metric.of_graph family.graph in
  let nt = Netting_tree.build (Hierarchy.build metric) in
  (metric, nt)

(* The selected scheme, built once: every subcommand reads this value. A
   labeled scheme routes by label and a name-independent one by name (both
   theorems' schemes are one built type); [compile] builds the serving
   engine, which the spanning tree does not have. *)
type built = {
  view :
    [ `Labeled of Scheme.labeled | `Name_independent of Ni_scheme.t ];
  compile : (unit -> Cr_serve.Engine.t) option;
}

let build_scheme kind metric nt ~epsilon ~naming =
  let module Engine = Cr_serve.Engine in
  let module Hier = Cr_core.Hier_labeled in
  let module Sfl = Cr_core.Scale_free_labeled in
  match kind with
  | Ft ->
    { view = `Labeled (Cr_baselines.Full_table.labeled metric);
      compile = Some (fun () -> Engine.compile_full metric) }
  | St ->
    { view = `Labeled (Cr_baselines.Spanning_tree.labeled metric ~root:0);
      compile = None }
  | Hier ->
    let t = Hier.build nt ~epsilon in
    { view = `Labeled (Hier.to_underlying t);
      compile = Some (fun () -> Engine.compile_hier t) }
  | Sfl ->
    let t = Sfl.build nt ~epsilon in
    { view = `Labeled (Sfl.to_underlying t);
      compile = Some (fun () -> Engine.compile_scale_free_labeled t) }
  | Simple ->
    let hl = Hier.build nt ~epsilon in
    let t =
      Cr_core.Simple_ni.build nt ~epsilon ~naming
        ~underlying:(Hier.to_underlying hl)
    in
    { view = `Name_independent t;
      compile =
        Some
          (fun () ->
            Engine.compile_simple_ni ~underlying:(Engine.compile_hier hl) t) }
  | Sfni ->
    let sfl = Sfl.build nt ~epsilon in
    let t =
      Cr_core.Scale_free_ni.build nt ~epsilon ~naming
        ~underlying:(Sfl.to_underlying sfl)
    in
    { view = `Name_independent (Cr_core.Scale_free_ni.scheme t);
      compile =
        Some
          (fun () ->
            Engine.compile_scale_free_ni
              ~underlying:(Engine.compile_scale_free_labeled sfl) t) }

(* A route from [src] to node [dst] on a fresh walker, by label or by
   the node's name. *)
let router metric b =
  match b.view with
  | `Labeled s -> fun ~src ~dst -> Scheme.route_labeled metric s ~src ~dst
  | `Name_independent s ->
    let ni = Ni_scheme.to_scheme s in
    fun ~src ~dst ->
      ni.Scheme.route_to_name ~src
        ~dest_name:s.Ni_scheme.naming.Workload.name_of.(dst)

(* The walk to node [dst], for a walker the caller places and observes. *)
let walk_to b ~dst =
  match b.view with
  | `Labeled s -> fun w -> s.Scheme.walk w ~dest_label:(s.Scheme.label dst)
  | `Name_independent s ->
    fun w ->
      Ni_scheme.walk s w
        ~dest_name:s.Ni_scheme.naming.Workload.name_of.(dst)

(* inspect *)

let inspect family =
  let metric, nt = load family in
  let g = Metric.graph metric in
  let h = Netting_tree.hierarchy nt in
  Printf.printf "family        %s\n" family.spec;
  Printf.printf "nodes         %d\n" (Metric.n metric);
  Printf.printf "edges         %d\n" (Graph.num_edges g);
  Printf.printf "max degree    %d\n" (Graph.max_degree g);
  Printf.printf "diameter      %.3f\n" (Metric.diameter metric);
  Printf.printf "Delta         %.6g\n" (Metric.normalized_diameter metric);
  Printf.printf "net levels    %d\n" (Hierarchy.top_level h);
  Printf.printf "doubling dim  %.2f (greedy estimate)\n"
    (Cr_metric.Doubling.estimate_sampled metric ~samples:50 ~seed:1);
  Printf.printf "net sizes     %s\n"
    (String.concat " "
       (List.init
          (Hierarchy.top_level h + 1)
          (fun i -> string_of_int (List.length (Hierarchy.net h i)))));
  0

(* route *)

let route family scheme_kind epsilon seed src dst =
  let metric, nt = load family in
  let n = Metric.n metric in
  if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then begin
    Printf.eprintf "route: need distinct src and dst in [0, %d)\n" n;
    1
  end
  else begin
    let naming = Workload.random_naming ~n ~seed in
    let d = Metric.dist metric src dst in
    let b = build_scheme scheme_kind metric nt ~epsilon ~naming in
    let o = router metric b ~src ~dst in
    (match b.view with
    | `Labeled s ->
      Printf.printf
        "%s: %d -> %d cost %.3f hops %d (distance %.3f, stretch %.3f)\n"
        s.Scheme.l_name src dst o.Scheme.cost o.Scheme.hops d
        (o.Scheme.cost /. d)
    | `Name_independent s ->
      Printf.printf
        "%s: %d -> name %d (node %d) cost %.3f hops %d (distance %.3f, \
         stretch %.3f)\n"
        s.Ni_scheme.name src naming.Workload.name_of.(dst) dst
        o.Scheme.cost o.Scheme.hops d (o.Scheme.cost /. d));
    0
  end

(* stats *)

let stats family scheme_kind epsilon seed pairs_budget =
  let metric, nt = load family in
  let n = Metric.n metric in
  let naming = Workload.random_naming ~n ~seed in
  let pairs = Workload.pairs_for ~n ~seed:(seed + 1) ~budget:pairs_budget in
  (match (build_scheme scheme_kind metric nt ~epsilon ~naming).view with
  | `Labeled s ->
    let summary = Stats.measure_labeled metric s pairs in
    Printf.printf "%s on %s\n  %s\n  table bits max %d avg %.1f, label %d, \
                   header %d\n"
      s.Scheme.l_name family.spec
      (Format.asprintf "%a" Stats.pp_summary summary)
      (Scheme.max_table_bits s n) (Scheme.avg_table_bits s n)
      s.Scheme.l_label_bits s.Scheme.l_header_bits
  | `Name_independent s ->
    let s = Ni_scheme.to_scheme s in
    let summary = Stats.measure_name_independent metric s naming pairs in
    Printf.printf
      "%s on %s\n  %s\n  table bits max %d avg %.1f, header %d\n"
      s.Scheme.ni_name family.spec
      (Format.asprintf "%a" Stats.pp_summary summary)
      (Scheme.ni_max_table_bits s n)
      (Scheme.ni_avg_table_bits s n) s.Scheme.ni_header_bits);
  0

(* trace / metrics: walk the built scheme so the walker emits
   phase-tagged hop events; the text, csv and dot renderings read the
   route's node sequence back from them. *)

let trace family scheme_kind epsilon seed src dst format =
  let metric, nt = load family in
  let n = Metric.n metric in
  if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then begin
    Printf.eprintf "trace: need distinct src and dst in [0, %d)\n" n;
    1
  end
  else begin
    let naming = Workload.random_naming ~n ~seed in
    let walk =
      walk_to (build_scheme scheme_kind metric nt ~epsilon ~naming) ~dst
    in
    let t =
      Cr_core.Route_trace.capture metric ~max_hops:1_000_000 ~src ~dst ~walk
    in
    let route = Cr_core.Route_trace.nodes ~src t.events in
    (match format with
    | `Jsonl -> print_string (Cr_core.Route_trace.to_jsonl [ t ])
    | `Chrome -> print_string (Cr_core.Route_trace.to_chrome [ t ])
    | `Dot -> print_string (Cr_sim.Export.dot_of_graph metric ~route ())
    | `Csv -> print_string (Cr_sim.Export.csv_of_route metric route)
    | `Text ->
      Printf.printf "trail (%d hops, cost %.3f): %s\n" t.hops t.cost
        (String.concat " -> " (List.map string_of_int route)));
    0
  end

(* metrics: same single route, folded through the Cr_obs.Metrics
   registry instead of dumped as raw events. *)

let metrics family scheme_kind epsilon seed src dst =
  let metric, nt = load family in
  let n = Metric.n metric in
  if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then begin
    Printf.eprintf "metrics: need distinct src and dst in [0, %d)\n" n;
    1
  end
  else begin
    let naming = Workload.random_naming ~n ~seed in
    let walk =
      walk_to (build_scheme scheme_kind metric nt ~epsilon ~naming) ~dst
    in
    let captured =
      Cr_core.Route_trace.capture metric ~max_hops:1_000_000 ~src ~dst ~walk
    in
    let reg = Cr_obs.Metrics.create () in
    let sink = Cr_obs.Metrics.sink reg in
    List.iter sink.Cr_obs.Trace.emit captured.Cr_core.Route_trace.events;
    print_string (Cr_obs.Metrics.to_json reg);
    0
  end

(* faults: fault plans and degraded routing from CLI flags. One command
   covers both halves of Cr_fault: the hardened transport (rerun the
   distributed SPT and hierarchy elections over a lossy network and
   report retransmit totals plus convergence) and degraded-mode routing
   (static edge/node failure sets, delivery and failover counts). Only a
   name-independent scheme has a degraded mode; a labeled one is a usage
   error. *)

let faults family scheme_kind epsilon seed plan_seed drop duplicate
    delay_prob delay_factor crash_fraction edge_rate node_fraction
    pairs_budget =
  let metric, nt = load family in
  let naming = Workload.random_naming ~n:(Metric.n metric) ~seed in
  match (build_scheme scheme_kind metric nt ~epsilon ~naming).view with
  | `Labeled s ->
    `Error
      ( true,
        Printf.sprintf
          "scheme %S has no degraded mode; faults runs -s simple or -s sfni"
          s.Scheme.l_name )
  | `Name_independent ni ->
    let g = Metric.graph metric in
    let n = Metric.n metric in
    let crashes =
      List.map
        (fun node -> { Cr_fault.Plan.node; down_at = 5.0; up_at = 25.0 })
        (Cr_fault.Plan.sample_node_failures ~protect:[ 0 ] ~seed:plan_seed
           ~fraction:crash_fraction n)
    in
    let plan =
      Cr_fault.Plan.make ~seed:plan_seed ~drop ~duplicate ~delay_prob
        ~delay_factor ~crashes ()
    in
    Printf.printf "plan          %s\n" (Cr_fault.Plan.describe plan);
    (* Hardened constructions under the plan. *)
    let rt = Cr_fault.Reliable.create ~plan () in
    let via = Cr_fault.Reliable.runner rt in
    let print_totals label converged =
      let t = Cr_fault.Reliable.totals rt in
      Printf.printf
        "%-13s %s: data %d, retransmits %d, acks %d, raw %d, dropped %d, \
         crash-lost %d\n"
        label
        (if converged then "converged (identical to fault-free)"
         else "DIVERGED")
        t.Cr_fault.Reliable.data t.Cr_fault.Reliable.retransmits
        t.Cr_fault.Reliable.acks t.Cr_fault.Reliable.raw_messages
        t.Cr_fault.Reliable.faults.Cr_proto.Network.sent_dropped
        t.Cr_fault.Reliable.faults.Cr_proto.Network.crash_lost;
      Cr_fault.Reliable.reset rt
    in
    (try
       let plain = Cr_proto.Dist_spt.run g ~root:0 in
       let hard = Cr_proto.Dist_spt.run ~via g ~root:0 in
       print_totals "spt"
         (Array.for_all2 Float.equal plain.Cr_proto.Dist_spt.dist
            hard.Cr_proto.Dist_spt.dist
         && plain.Cr_proto.Dist_spt.pred = hard.Cr_proto.Dist_spt.pred);
       let h = Netting_tree.hierarchy nt in
       let dh = Cr_proto.Dist_hierarchy.build ~via metric in
       print_totals "hierarchy"
         (Array.length dh.Cr_proto.Dist_hierarchy.nets
          = Hierarchy.top_level h + 1
         && Array.for_all Fun.id
              (Array.mapi
                 (fun i net -> net = Hierarchy.net h i)
                 dh.Cr_proto.Dist_hierarchy.nets))
     with Cr_proto.Network.Protocol_error err ->
       Printf.printf "construction  failed: %s\n"
         (Cr_proto.Network.error_message err));
    (* Degraded routing over static failure sets. *)
    let edges =
      Cr_fault.Plan.sample_edge_failures ~seed:plan_seed ~rate:edge_rate g
    in
    let nodes =
      Cr_fault.Plan.sample_node_failures ~seed:(plan_seed + 1)
        ~fraction:node_fraction n
    in
    let failures = Cr_sim.Failures.create ~edges ~nodes () in
    Printf.printf "failures      %d edges, %d nodes\n"
      (Cr_sim.Failures.edge_count failures)
      (Cr_sim.Failures.node_count failures);
    let pairs =
      Workload.pairs_for ~n ~seed:(seed + 1) ~budget:pairs_budget
    in
    let degraded = Ni_scheme.degraded_scheme ni ~failures in
    let d = Stats.measure_degraded metric degraded naming pairs in
    Printf.printf
      "%s\nroutes        %d: %d delivered, %d rerouted, %d undeliverable \
       (%d failovers, delivery rate %.3f)\n"
      degraded.Scheme.dg_name d.Stats.routes d.Stats.delivered
      d.Stats.rerouted d.Stats.undeliverable d.Stats.reroutes_total
      (Stats.delivery_rate d);
    (match d.Stats.arrived with
    | Some s ->
      Printf.printf "arrived       %s\n"
        (Format.asprintf "%a" Stats.pp_summary s)
    | None -> Printf.printf "arrived       none\n");
    `Ok 0

let faults_cmd =
  let fprob name doc =
    Arg.(value & opt float 0.0 & info [ name ] ~docv:"P" ~doc)
  in
  let plan_seed =
    Arg.(
      value & opt int 5
      & info [ "plan-seed" ] ~docv:"SEED" ~doc:"Seed for the fault plan.")
  in
  let drop = fprob "drop" "Per-message drop probability." in
  let duplicate = fprob "duplicate" "Per-message duplication probability." in
  let delay_prob = fprob "delay-prob" "Per-copy delay-inflation probability." in
  let delay_factor =
    Arg.(
      value & opt float 0.0
      & info [ "delay-factor" ] ~docv:"F"
          ~doc:"Inflated copies take delay * (1 + U * F).")
  in
  let crash_fraction =
    fprob "crash-fraction"
      "Fraction of nodes that crash mid-run and recover (node 0 protected)."
  in
  let edge_rate =
    fprob "edge-rate" "Fraction of edges failed for degraded routing."
  in
  let node_fraction =
    fprob "node-fraction" "Fraction of nodes failed for degraded routing."
  in
  let pairs =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"N" ~doc:"Pair budget (all pairs if fewer).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the distributed constructions over a seeded fault plan and \
          route a workload through static failures (scheme: simple or sfni)")
    Term.(
      ret
        (const faults $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg
       $ plan_seed $ drop $ duplicate $ delay_prob $ delay_factor
       $ crash_fraction $ edge_rate $ node_fraction $ pairs))

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print structural statistics of a network family")
    Term.(const inspect $ family_arg)

let route_cmd =
  let src =
    Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dst =
    Arg.(
      value & opt int 1 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route one packet and report cost and stretch")
    Term.(
      const route $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg $ src
      $ dst)

let stats_cmd =
  let pairs =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"N" ~doc:"Pair budget (all pairs if fewer).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Measure stretch and storage over a workload")
    Term.(
      const stats $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg $ pairs)

(* serve: package the scheme as a Cr_serve engine, serve a workload from
   it, and verify the served outcomes against the scheme's own walker
   routes. *)

let serve family scheme_kind epsilon seed pairs_budget =
  let module Engine = Cr_serve.Engine in
  let metric, nt = load family in
  let n = Metric.n metric in
  let naming = Workload.random_naming ~n ~seed in
  let pairs = Workload.pairs_for ~n ~seed:(seed + 1) ~budget:pairs_budget in
  let timed f =
    let t0 = Cr_obs.Trace.wall_clock () in
    let r = f () in
    (r, Cr_obs.Trace.wall_clock () -. t0)
  in
  let b = build_scheme scheme_kind metric nt ~epsilon ~naming in
  match b.compile with
  | None ->
    Printf.eprintf "serve: no compiled engine for the spanning-tree scheme\n";
    1
  | Some compile ->
    let eng, t_compile = timed compile in
    let walked_route = router metric b in
    let parr = Array.of_list pairs in
    let served, t_batch = timed (fun () -> Engine.batch eng parr) in
    let identical =
      Array.for_all2
        (fun (o : Scheme.outcome) (src, dst) ->
          let w = walked_route ~src ~dst in
          Float.equal o.Scheme.cost w.Scheme.cost && o.Scheme.hops = w.Scheme.hops)
        served parr
    in
    let bits_max = ref 0 and bits_sum = ref 0 in
    for v = 0 to n - 1 do
      let b = Engine.compiled_bits eng v in
      if b > !bits_max then bits_max := b;
      bits_sum := !bits_sum + b
    done;
    Printf.printf "serving %s on %s (n=%d)\n" (Engine.scheme_name eng) family.spec n;
    Printf.printf "compile       %.3fs\n" t_compile;
    Printf.printf "compiled bits max %d avg %.1f (%.1f arena bytes/node)\n"
      !bits_max
      (float_of_int !bits_sum /. float_of_int n)
      (Engine.bytes_per_node eng);
    Printf.printf "served        %d routes in %.3fs (%.0f routes/s)\n"
      (Array.length parr) t_batch
      (if t_batch > 0.0 then float_of_int (Array.length parr) /. t_batch
       else 0.0);
    Printf.printf "served = walked: %s\n" (if identical then "yes" else "NO");
    if identical then 0 else 1

let serve_cmd =
  let pairs =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"N" ~doc:"Pair budget (all pairs if fewer).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Package a scheme as a serving engine, serve a workload, and \
          verify the served routes against the walker")
    Term.(
      const serve $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg $ pairs)

(* verify: run every structural invariant check *)

let verify family =
  let metric, _ = load family in
  let findings = Cr_verify.Invariants.all metric in
  if findings = [] then begin
    Printf.printf
      "verify %s: all invariants hold (hierarchy, zoom, netting tree, \
       packings, search trees)\n"
      family.spec;
    0
  end
  else begin
    List.iter
      (fun f ->
        Printf.eprintf "%s\n"
          (Format.asprintf "%a" Cr_verify.Invariants.pp f))
      findings;
    Printf.eprintf "verify %s: %d invariant violations\n" family.spec
      (List.length findings);
    1
  end

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check every structural invariant of the paper on a family")
    Term.(const verify $ family_arg)

let trace_cmd =
  let src =
    Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dst =
    Arg.(
      value & opt int 1 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("text", `Text); ("dot", `Dot); ("csv", `Csv);
               ("jsonl", `Jsonl); ("chrome", `Chrome) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output: text, dot, csv, jsonl (phase-tagged event log), or \
             chrome (trace_event JSON for chrome://tracing).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Route one packet and dump its trail (text/dot/csv) or \
          phase-tagged trace (jsonl/chrome)")
    Term.(
      const trace $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg $ src
      $ dst $ format)

let metrics_cmd =
  let src =
    Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dst =
    Arg.(
      value & opt int 1 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Route one packet and print its Cr_obs.Metrics registry snapshot \
          (per-phase hop/cost counters, hop-cost histogram) as JSON")
    Term.(
      const metrics $ family_arg $ scheme_arg $ epsilon_arg $ seed_arg $ src
      $ dst)

(* cost: CONGEST accounting for one distributed construction *)

type construction = C_spt | C_election | C_hierarchy | C_netting | C_radii
                  | C_packing

let construction_conv =
  Arg.enum
    [ ("spt", C_spt); ("election", C_election); ("hierarchy", C_hierarchy);
      ("netting", C_netting); ("radii", C_radii); ("packing", C_packing) ]

(* A positive float: zero, a negative number and NaN are usage errors
   (exit 124) naming the flag. *)
let positive_float =
  let parse text =
    match Arg.conv_parser Arg.float text with
    | Ok x when x > 0.0 -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%S: not a positive number" text))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* Packing's scale: balls of 2^j nodes, so the family needs that many. *)
let packing_j = 3

let print_cost family construction radius top chrome =
  let metric, _ = load family in
  let g = Metric.graph metric in
  let acct = Cr_obs.Cost.create () in
  let via = Cr_proto.Network.local ~cost:acct () in
  let name =
    match construction with
    | C_spt ->
      ignore (Cr_proto.Dist_spt.run ~via g ~root:0);
      "spt"
    | C_election ->
      ignore (Cr_proto.Net_election.run ~via g ~r:radius);
      Printf.sprintf "election (r=%g)" radius
    | C_hierarchy ->
      ignore (Cr_proto.Dist_hierarchy.build ~via metric);
      "hierarchy"
    | C_netting ->
      let ch = Hierarchy.build metric in
      let level = Int.max 0 (Hierarchy.top_level ch - 2) in
      ignore
        (Cr_proto.Dist_netting.parents_for_level ~via metric
           ~members:(Hierarchy.net ch level)
           ~upper:(Hierarchy.net ch (level + 1))
           ~radius:(Float.pow 2.0 (float_of_int (level + 1))));
      Printf.sprintf "netting (level %d)" level
    | C_radii ->
      ignore (Cr_proto.Dist_radii.run ~via g);
      "radii"
    | C_packing ->
      (* the radii prerequisite runs uncosted so the table isolates the
         packing protocol itself *)
      let radii = Cr_proto.Dist_radii.run g in
      let j = packing_j in
      ignore
        (Cr_proto.Dist_packing.run ~via g
           ~distances:radii.Cr_proto.Dist_radii.distances ~j);
      Printf.sprintf "packing (j=%d)" j
  in
  Printf.printf "CONGEST cost of %s on %s\n\n" name family.spec;
  print_string (Cr_obs.Cost.render acct);
  let edges = Cr_obs.Cost.top_edges acct ~k:top in
  if edges <> [] then begin
    Printf.printf "\ntop %d congested edges:\n" (List.length edges);
    Printf.printf "%-12s %10s %12s\n" "edge" "messages" "bits";
    List.iter
      (fun (e : Cr_obs.Cost.edge_load) ->
        Printf.printf "%4d-%-7d %10d %12d\n" e.Cr_obs.Cost.u
          e.Cr_obs.Cost.v e.Cr_obs.Cost.messages e.Cr_obs.Cost.bits)
      edges
  end;
  (match chrome with
  | Some path ->
    let oc = open_out path in
    output_string oc (Cr_obs.Chrome.heatmap acct);
    close_out oc;
    Printf.printf "\nwrote per-edge heatmap to %s (chrome://tracing)\n" path
  | None -> ());
  0

let cost family construction radius top chrome =
  let n = Graph.n family.graph in
  match construction with
  | C_packing when 1 lsl packing_j > n ->
    `Error
      ( true,
        Printf.sprintf "%S has %d nodes; packing (j=%d) needs at least %d"
          family.spec n packing_j (1 lsl packing_j) )
  | _ -> `Ok (print_cost family construction radius top chrome)

let cost_cmd =
  let construction_arg =
    let doc =
      "Construction: spt, election, hierarchy, netting, radii, packing."
    in
    Arg.(
      value & opt construction_conv C_spt
      & info [ "construction"; "c" ] ~docv:"NAME" ~doc)
  in
  let radius_arg =
    Arg.(
      value & opt positive_float 2.0
      & info [ "radius" ] ~docv:"R"
          ~doc:"Election ball radius, a positive number.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"How many congested edges to list.")
  in
  let chrome_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"PATH"
          ~doc:
            "Also write the per-edge congestion heatmap as trace_event \
             JSON for chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Run one distributed construction with CONGEST cost accounting \
          and print its per-phase round/message/bit table plus the most \
          congested edges")
    Term.(
      ret
        (const cost $ family_arg $ construction_arg $ radius_arg $ top_arg
       $ chrome_arg))

(* live: the E21 console view — Zipf traffic through the Thm 1.4 failover
   scheme with streaming telemetry windows. *)

module Live = Cr_obs.Live

let live family epsilon seed alpha windows window_size top pairs_budget
    edge_rate node_fraction chrome =
  let metric, nt = load family in
  let g = Metric.graph metric in
  let n = Metric.n metric in
  let naming = Workload.random_naming ~n ~seed in
  let pairs =
    Workload.zipf_pairs ~n ~alpha ~count:pairs_budget ~seed:(seed + 1)
  in
  let hl = Cr_core.Hier_labeled.build nt ~epsilon in
  let ni =
    Cr_core.Simple_ni.build nt ~epsilon ~naming
      ~underlying:(Cr_core.Hier_labeled.to_underlying hl)
  in
  let edges = Cr_fault.Plan.sample_edge_failures ~seed:23 ~rate:edge_rate g in
  let nodes =
    Cr_fault.Plan.sample_node_failures ~seed:29 ~fraction:node_fraction n
  in
  let failures = Cr_sim.Failures.create ~edges ~nodes () in
  let acc = Live.create ~window:window_size ~depth:windows ~k:top () in
  let budget = Cr_sim.Walker.ni_budget n in
  List.iter
    (fun (src, dst) ->
      if Live.enabled acc then begin
        Live.tick acc;
        let dist = Metric.dist metric src dst in
        if Cr_sim.Failures.node_failed failures src then
          Live.record acc ~src ~dst ~status:Live.Undeliverable ~dist
            ~cost:0.0 ~hops:0
        else begin
          let w =
            Cr_sim.Walker.create ~failures ~live:acc metric ~start:src
              ~max_hops:budget
          in
          let status, _reroutes =
            Ni_scheme.walk_degraded ni w
              ~dest_name:naming.Workload.name_of.(dst)
          in
          Live.record acc ~src ~dst ~status ~dist
            ~cost:(Cr_sim.Walker.cost w) ~hops:(Cr_sim.Walker.hops w)
        end
      end)
    pairs;
  Printf.printf
    "Zipf(%g) x %d pairs on %s (Thm 1.4 failover; %d edges, %d nodes failed)\n\n"
    alpha (List.length pairs) family.spec
    (Cr_sim.Failures.edge_count failures)
    (Cr_sim.Failures.node_count failures);
  print_string (Live.render acc);
  (match chrome with
  | Some path ->
    let oc = open_out path in
    output_string oc (Cr_obs.Chrome.live_timeline acc);
    close_out oc;
    Printf.printf "\nwrote live timeline to %s (chrome://tracing)\n" path
  | None -> ());
  0

let live_cmd =
  let alpha_arg =
    Arg.(
      value & opt float 1.0
      & info [ "alpha"; "a" ] ~docv:"A"
          ~doc:"Zipf skew exponent (0 = uniform).")
  in
  let windows_arg =
    Arg.(
      value & opt int 8
      & info [ "windows" ] ~docv:"D" ~doc:"Sliding windows retained.")
  in
  let window_size_arg =
    Arg.(
      value & opt int 250
      & info [ "window-size" ] ~docv:"W"
          ~doc:"Routes per window (the logical-clock bucket width).")
  in
  let top_arg =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"K"
          ~doc:"Heavy hitters tracked per window and for the run.")
  in
  let pairs_arg =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"N" ~doc:"Routes to drive.")
  in
  let edge_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "edge-rate" ] ~docv:"P"
          ~doc:"Fraction of edges failed (E18 seed).")
  in
  let node_fraction_arg =
    Arg.(
      value & opt float 0.0
      & info [ "node-fraction" ] ~docv:"P"
          ~doc:"Fraction of nodes failed (E18 seed).")
  in
  let chrome_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"PATH"
          ~doc:
            "Also write the per-window telemetry timeline as trace_event \
             JSON counters for chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Stream a Zipf workload through the Thm 1.4 scheme under static \
          failures and print the sliding-window live telemetry (delivery \
          rate, stretch quantiles, edge utilization, heavy hitters)")
    Term.(
      const live $ family_arg $ epsilon_arg $ seed_arg $ alpha_arg
      $ windows_arg $ window_size_arg $ top_arg $ pairs_arg $ edge_rate_arg
      $ node_fraction_arg $ chrome_arg)

(* scale: the Cr_scale tier interactively — no dense matrix, so families
   like plaw:100000:3 work where `stats` would stall on APSP. *)

let scale family epsilon seed sources per_source alpha which sample =
  let module Oracle = Cr_scale.Oracle in
  let module Eval = Cr_scale.Eval in
  let module Nets = Cr_scale.Nets in
  let module LS = Cr_scale.Landmark_scale in
  let module ZS = Cr_scale.Zoom_scale in
  let graph = family.graph in
  let pool = Cr_par.Pool.default () in
  let oracle = Oracle.create graph in
  let g = Oracle.graph oracle in
  let n = Oracle.n oracle in
  let pairs = Eval.sample_pairs ~n ~sources ~per_source ~alpha ~seed in
  let schemes =
    List.concat
      [ (if which = "zoom" then []
         else begin
           let lm = LS.build ~pool oracle ~seed:3 in
           [ (LS.scheme ~storage:(LS.storage lm) lm, LS.build_settled lm) ]
         end);
        (if which = "landmark" then []
         else begin
           let z = ZS.build oracle ~epsilon in
           let storage, sweep = ZS.storage ~pool ~sample z in
           [ (ZS.scheme ~storage z,
              Nets.settled_work (ZS.nets z) + sweep) ]
         end) ]
  in
  Printf.printf
    "scale eval on %s: n=%d edges=%d, %d pairs (%d sources x %d, \
     Zipf(%g) destinations)\n"
    family.spec n (Graph.num_edges g) (List.length pairs) sources per_source
    alpha;
  List.iter
    (fun ((s : Eval.scheme), build_settled) ->
      let r = Eval.measure ~pool g s pairs in
      let sum = r.Eval.summary in
      Printf.printf "\n%s\n" s.Eval.name;
      Printf.printf
        "  stretch max %.3f avg %.3f p50 %.3f p99 %.3f (max cost %.3f)\n"
        sum.Stats.max_stretch sum.Stats.avg_stretch sum.Stats.p50_stretch
        sum.Stats.p99_stretch sum.Stats.max_cost;
      (match s.Eval.storage with
      | Some st ->
        Printf.printf "  table bits max %d avg %.1f%s, header %d\n"
          st.Eval.bits_max st.Eval.bits_avg
          (if st.Eval.bits_sampled then " (sampled)" else "")
          s.Eval.header_bits
      | None -> ());
      Printf.printf
        "  work: build settled %d; eval %d sssp, %d ball searches, %d \
         settled\n"
        build_settled r.Eval.work.Eval.sssp r.Eval.work.Eval.bounded_runs
        r.Eval.work.Eval.settled)
    schemes;
  let snap = Oracle.snapshot oracle in
  Printf.printf
    "\noracle: %d sssp runs, %d settled, %d hits / %d misses, %d \
     evictions, %d rows cached\n"
    snap.Oracle.sssp_runs snap.Oracle.settled snap.Oracle.hits
    snap.Oracle.misses snap.Oracle.evictions snap.Oracle.cached;
  0

let scale_cmd =
  let sources_arg =
    Arg.(
      value & opt int 64
      & info [ "sources" ] ~docv:"S" ~doc:"Sampled sources.")
  in
  let per_source_arg =
    Arg.(
      value & opt int 32
      & info [ "per-source" ] ~docv:"P" ~doc:"Destinations per source.")
  in
  let alpha_arg =
    Arg.(
      value & opt float 0.0
      & info [ "alpha"; "a" ] ~docv:"A"
          ~doc:"Zipf skew for destinations (0 = uniform).")
  in
  let which_arg =
    let doc = "Scheme set: all, landmark, or zoom." in
    Arg.(
      value
      & opt (enum [ ("all", "all"); ("landmark", "landmark"); ("zoom", "zoom") ])
          "all"
      & info [ "schemes" ] ~docv:"SET" ~doc)
  in
  let sample_arg =
    Arg.(
      value & opt int 64
      & info [ "storage-sample" ] ~docv:"K"
          ~doc:
            "Net points sampled per level for the zooming directory's \
             table-bit estimate (0 = exact sweep of every node).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Sampled-pair stretch and oracle work on large graphs via the \
          Cr_scale tier (no dense distance matrix); try \
          --family plaw:100000:3")
    Term.(
      const scale $ family_arg $ epsilon_arg $ seed_arg $ sources_arg
      $ per_source_arg $ alpha_arg $ which_arg $ sample_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "crdemo" ~version:"1.0"
       ~doc:"Compact routing schemes in low-doubling networks")
    [ inspect_cmd; route_cmd; stats_cmd; serve_cmd; trace_cmd; metrics_cmd;
      verify_cmd; faults_cmd; cost_cmd; live_cmd; scale_cmd ]

let () = exit (Cmd.eval' main_cmd)
