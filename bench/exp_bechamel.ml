(* Bechamel micro-benchmarks: one Test.make per pipeline stage — metric
   construction, each scheme's preprocessing, and single-route latency for
   each scheme (one test per Table 1 / Table 2 row). *)

open Bechamel
open Toolkit
module Metric = Cr_metric.Metric
module Workload = Cr_sim.Workload
module Scheme = Cr_sim.Scheme

let make_instance () =
  Common.instance "geo-96" (Cr_graphgen.Geometric.knn ~n:96 ~k:3 ~seed:29)

let tests () =
  let inst = make_instance () in
  let naming = Common.naming_of inst in
  let eps = Common.default_epsilon in
  let graph = Metric.graph inst.metric in
  let hl = Common.hier_labeled inst ~epsilon:eps in
  let sfl = Common.scale_free_labeled inst ~epsilon:eps in
  let sni = Common.simple_ni inst ~epsilon:eps ~naming in
  let sfni = Common.scale_free_ni inst ~epsilon:eps ~naming in
  let hl_s = Cr_core.Hier_labeled.to_underlying hl in
  let sfl_s = Cr_core.Scale_free_labeled.to_underlying sfl in
  let sni_s = Cr_core.Simple_ni.to_scheme sni in
  let sfni_s = Cr_core.Scale_free_ni.to_scheme sfni in
  let pairs = Array.of_list (Workload.sample_pairs ~n:96 ~count:64 ~seed:31) in
  let cursor = ref 0 in
  let next_pair () =
    let p = pairs.(!cursor) in
    cursor := (!cursor + 1) mod Array.length pairs;
    p
  in
  let route_labeled (s : Scheme.labeled) () =
    let src, dst = next_pair () in
    ignore (Scheme.route_labeled inst.metric s ~src ~dst)
  in
  let route_ni (s : Scheme.name_independent) () =
    let src, dst = next_pair () in
    ignore (s.Scheme.route_to_name ~src ~dest_name:naming.Workload.name_of.(dst))
  in
  [ Test.make ~name:"prep/metric (APSP)"
      (Staged.stage (fun () -> ignore (Metric.of_graph graph)));
    Test.make ~name:"prep/hier-labeled"
      (Staged.stage (fun () ->
           ignore (Cr_core.Hier_labeled.build inst.Common.nt ~epsilon:eps)));
    Test.make ~name:"prep/scale-free-labeled"
      (Staged.stage (fun () ->
           ignore (Cr_core.Scale_free_labeled.build inst.Common.nt ~epsilon:eps)));
    Test.make ~name:"prep/simple-ni"
      (Staged.stage (fun () ->
           ignore
             (Cr_core.Simple_ni.build inst.Common.nt ~epsilon:eps ~naming
                ~underlying:(Cr_core.Hier_labeled.to_underlying hl))));
    Test.make ~name:"prep/scale-free-ni"
      (Staged.stage (fun () ->
           ignore
             (Cr_core.Scale_free_ni.build inst.Common.nt ~epsilon:eps ~naming
                ~underlying:(Cr_core.Scale_free_labeled.to_underlying sfl))));
    Test.make ~name:"route/hier-labeled" (Staged.stage (route_labeled hl_s));
    Test.make ~name:"route/scale-free-labeled"
      (Staged.stage (route_labeled sfl_s));
    Test.make ~name:"route/simple-ni" (Staged.stage (route_ni sni_s));
    Test.make ~name:"route/scale-free-ni" (Staged.stage (route_ni sfni_s)) ]

let run () =
  print_endline "\n== Bechamel micro-benchmarks (geo-96, eps = 0.5) ==";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  List.iter
    (fun test ->
      let results =
        List.map
          (fun elt ->
            let raw = Benchmark.run cfg instances elt in
            (Test.Elt.name elt, Analyze.one ols Instance.monotonic_clock raw))
          (Test.elements test)
      in
      List.iter
        (fun (name, ols_result) ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Printf.printf "%-28s %12.0f ns/op\n" name ns)
        results)
    (tests ())
