(* E3 — empirical analog of Figure 1: an execution of the name-independent
   routing algorithm. For sample pairs at several distances, print the
   per-level climb and search costs, the level at which the destination's
   label was found, and the total cost against the 9 + O(eps) budget. *)

open Common
module Metric = Cr_metric.Metric
module Walker = Cr_sim.Walker
module Ni_scheme = Cr_core.Ni_scheme
module Ni_route = Cr_core.Ni_route

let run () =
  let inst =
    instance "holey-12x12"
      (Cr_graphgen.Grid.with_holes ~side:12 ~hole_fraction:0.25 ~seed:7)
  in
  let naming = naming_of inst in
  let scheme = simple_ni inst ~epsilon:default_epsilon ~naming in
  let n = Metric.n inst.metric in
  (* pick pairs of increasing distance from node 0 *)
  let src = 0 in
  let sample_dst =
    let by_dist =
      List.sort
        (fun a b ->
          Float.compare (Metric.dist inst.metric src a)
            (Metric.dist inst.metric src b))
        (List.filter (fun v -> v <> src) (List.init n Fun.id))
    in
    let arr = Array.of_list by_dist in
    [ arr.(0); arr.(Array.length arr / 4); arr.(Array.length arr / 2);
      arr.(Array.length arr - 1) ]
  in
  print_header
    "E3 (Figure 1): per-level trace of Algorithm 3 (simple NI, holey grid)"
    [ "src->dst"; "d(u,v)"; "lvl"; "hub"; "climb"; "search"; "found" ];
  List.iter
    (fun dst ->
      let w = Walker.create inst.metric ~start:src ~max_hops:1_000_000 in
      Ni_scheme.walk
        ~observe:(fun (r : Ni_route.level_report) ->
          print_row
            [ cell "%4d->%-4d" src dst;
              cell "%6.1f" (Metric.dist inst.metric src dst);
              cell "%3d" r.Ni_route.level;
              cell "%4d" r.Ni_route.hub;
              cell "%7.2f" r.Ni_route.climb_cost;
              cell "%7.2f" r.Ni_route.search_cost;
              (if r.Ni_route.found then "yes" else " no") ])
        scheme w ~dest_name:naming.Cr_sim.Workload.name_of.(dst);
      let d = Metric.dist inst.metric src dst in
      Printf.printf
        "   total cost %.2f = stretch %.2f (budget 9+O(eps) on d = %.1f)\n"
        (Walker.cost w)
        (Walker.cost w /. d)
        d)
    sample_dst;
  print_newline ();
  print_endline
    "Paper shape (Fig 1): searches at levels below the found level all miss;";
  print_endline
    "per-level search cost doubles with the level; the climb stays within";
  print_endline "Eqn (2)'s 2^(i+1) envelope."
