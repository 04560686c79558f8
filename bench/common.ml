(* Shared instance construction and table formatting for the experiment
   harness (bench/main.ml). Every experiment in EXPERIMENTS.md is
   regenerated from these builders with fixed seeds. *)

module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Workload = Cr_sim.Workload
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Report = Cr_sim.Report
module Pool = Cr_par.Pool

(* The pool every experiment shares: size from CR_DOMAINS or the machine;
   all outputs are pool-size independent (see Cr_par.Pool), so the
   experiment tables are reproducible whatever the parallelism. *)
let pool () = Pool.default ()

type instance = {
  name : string;
  metric : Metric.t;
  nt : Netting_tree.t;
}

let instance ?pool:(p = Pool.default ()) name graph =
  let metric = Metric.of_graph ~pool:p graph in
  let nt = Netting_tree.build (Hierarchy.build metric) in
  { name; metric; nt }

(* The standard evaluation families (sizes chosen so the full matrix of
   experiments completes in minutes). Seeds are fixed for reproducibility. *)
let families () =
  [ instance "grid-10x10" (Cr_graphgen.Grid.square ~side:10);
    instance "holey-12x12"
      (Cr_graphgen.Grid.with_holes ~side:12 ~hole_fraction:0.25 ~seed:7);
    instance "geo-128" (Cr_graphgen.Geometric.knn ~n:128 ~k:3 ~seed:11);
    instance "ring-128" (Cr_graphgen.Path_like.ring ~n:128);
    instance "lbtree-128"
      (Cr_lowerbound.Construction.graph
         (Cr_lowerbound.Construction.build ~n:128 ~p:4 ~q:3)) ]

(* The next size tier, unlocked by the Cr_par domain pool, for the
   experiments that want thousand-node instances. Kept out of [families]
   so the full sequential matrix still completes in minutes. *)
let large_families ?pool () =
  List.map
    (fun (name, graph) -> instance ?pool name (graph ()))
    [ ("geo-1024", fun () -> Cr_graphgen.Geometric.knn ~n:1024 ~k:3 ~seed:11);
      ("grid-32x32", fun () -> Cr_graphgen.Grid.square ~side:32) ]

let default_epsilon = 0.5
let pairs_budget = 2_000

(* Report threading (`bench/main.exe -- --report DIR`): while an
   experiment runs, [current_report] collects rows; the shared
   measurement helpers below record their headline numbers automatically,
   and experiments with extra artifacts (phase histograms, message
   counts, par.* stage times) call [record] themselves. When reporting is
   off, every recording call is a no-op. *)

let current_report : Report.t option ref = ref None

let begin_experiment key = current_report := Some (Report.create ~experiment:key)

let finish_experiment () =
  let r = !current_report in
  current_report := None;
  r

(* Repeated measurements of one (family, scheme) — an epsilon sweep, a
   before/after-failure comparison — get deterministic occurrence
   discriminators ("scheme@2", "scheme@3", ...) in measurement order. *)
let record ~family ~scheme ?timings metrics =
  match !current_report with
  | None -> ()
  | Some r ->
    let occurrences =
      List.length
        (List.filter
           (fun (row : Report.row) ->
             String.equal row.Report.family family
             && (String.equal row.Report.scheme scheme
                || String.length row.Report.scheme > String.length scheme
                   && String.equal
                        (String.sub row.Report.scheme 0
                           (String.length scheme + 1))
                        (scheme ^ "@")))
           (Report.rows r))
    in
    let discriminator =
      if occurrences = 0 then None else Some (string_of_int (occurrences + 1))
    in
    Report.add_row r ~family ~scheme ?discriminator ?timings metrics

(* Structural fields shared by every auto-recorded row. *)
let instance_metrics inst =
  [ ("n", Report.Int (Metric.n inst.metric));
    ("delta", Report.Float (Metric.normalized_diameter inst.metric)) ]

let pairs_of inst =
  Workload.pairs_for ~n:(Metric.n inst.metric) ~seed:17 ~budget:pairs_budget

let naming_of inst = Workload.random_naming ~n:(Metric.n inst.metric) ~seed:42

(* Scheme builders (table construction rides the shared pool) *)

let hier_labeled inst ~epsilon =
  Cr_core.Hier_labeled.build ~pool:(pool ()) inst.nt ~epsilon

let scale_free_labeled inst ~epsilon =
  Cr_core.Scale_free_labeled.build ~pool:(pool ()) inst.nt ~epsilon

let simple_ni inst ~epsilon ~naming =
  let hl = hier_labeled inst ~epsilon in
  Cr_core.Simple_ni.build ~pool:(pool ()) inst.nt ~epsilon ~naming
    ~underlying:(Cr_core.Hier_labeled.to_underlying hl)

let scale_free_ni inst ~epsilon ~naming =
  let sfl = scale_free_labeled inst ~epsilon in
  Cr_core.Scale_free_ni.build ~pool:(pool ()) inst.nt ~epsilon ~naming
    ~underlying:(Cr_core.Scale_free_labeled.to_underlying sfl)

(* Workload evaluation on the shared pool: one walker per pair, samples
   merged in pair order, so summaries match the sequential run exactly.
   Under --report, each call also records one report row: the summary,
   the scheme's storage footprint, and the structural instance fields as
   deterministic metrics; the evaluation wall time as a timing. *)
let measure_labeled inst (s : Scheme.labeled) pairs =
  let t0 = Cr_obs.Trace.wall_clock () in
  let summary = Stats.measure_labeled ~pool:(pool ()) inst.metric s pairs in
  let dt = Cr_obs.Trace.wall_clock () -. t0 in
  let n = Metric.n inst.metric in
  record ~family:inst.name ~scheme:s.Scheme.l_name
    ~timings:[ ("eval.seconds", dt) ]
    (Report.of_summary summary
    @ instance_metrics inst
    @ [ ("table_bits.max", Report.Int (Scheme.max_table_bits s n));
        ("table_bits.avg", Report.Float (Scheme.avg_table_bits s n));
        ("label_bits", Report.Int s.Scheme.l_label_bits);
        ("header_bits", Report.Int s.Scheme.l_header_bits) ]);
  summary

let measure_name_independent inst (s : Scheme.name_independent) naming pairs =
  let t0 = Cr_obs.Trace.wall_clock () in
  let summary =
    Stats.measure_name_independent ~pool:(pool ()) inst.metric s naming pairs
  in
  let dt = Cr_obs.Trace.wall_clock () -. t0 in
  let n = Metric.n inst.metric in
  record ~family:inst.name ~scheme:s.Scheme.ni_name
    ~timings:[ ("eval.seconds", dt) ]
    (Report.of_summary summary
    @ instance_metrics inst
    @ [ ("table_bits.max", Report.Int (Scheme.ni_max_table_bits s n));
        ("table_bits.avg", Report.Float (Scheme.ni_avg_table_bits s n));
        ("header_bits", Report.Int s.Scheme.ni_header_bits) ]);
  summary

(* Table printing *)

let print_header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat " | " columns);
  Printf.printf "%s\n"
    (String.concat "-|-"
       (List.map (fun c -> String.make (String.length c) '-') columns))

let cell fmt = Printf.sprintf fmt

let print_row cells = Printf.printf "%s\n" (String.concat " | " cells)

let bits_cell max_bits avg_bits =
  Printf.sprintf "%7d / %9.1f" max_bits avg_bits

let stretch_cells (s : Stats.summary) =
  [ cell "%6.3f" s.Stats.max_stretch;
    cell "%6.3f" s.Stats.avg_stretch;
    cell "%6.3f" s.Stats.p99_stretch ]
