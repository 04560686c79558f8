module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Search_tree = Cr_search.Search_tree
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace

type t = Ni_scheme.t

let build ?obs ?(pool = Cr_par.Pool.default ()) ?(min_level = 0) nt ~epsilon
    ~naming ~underlying =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Simple_ni.build: epsilon must be in (0, 1)";
  let ctx = Trace.resolve obs in
  Trace.span ctx "simple_ni.build" @@ fun () ->
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let n = Metric.n m in
  let top = Hierarchy.top_level h in
  let eps_eff = Ni_scheme.effective_epsilon epsilon in
  if min_level < 0 || min_level > top then
    invalid_arg "Simple_ni.build: min_level out of range";
  (* level * n + net point -> its tree *)
  let sites = Array.make ((top + 1) * n) None in
  let search_trees = ref 0 in
  let trees_of = Array.make n [] in
  (* Net points are independent within a level: build every search tree in
     parallel, then register sequentially in net order so trees_of lists
     come out in the same order as the sequential run. Workers only read
     the metric/naming/underlying tables and emit no trace events. *)
  for i = min_level to top do
    let radius = Float.pow 2.0 (float_of_int i) /. eps_eff in
    let built =
      Cr_par.Pool.parallel_map_list pool
        (fun u ->
          let members = Metric.ball m ~center:u ~radius in
          let pairs =
            List.map
              (fun v ->
                (naming.Workload.name_of.(v), underlying.Scheme.label v))
              members
          in
          let st =
            Search_tree.build m ~epsilon:eps_eff ~center:u ~radius ~members
              ~level_cap:None ~pairs ~universe:n
          in
          (u, members, st))
        (Hierarchy.net h i)
    in
    List.iter
      (fun (u, members, st) ->
        sites.((i * n) + u) <- Some (Ni_route.Local st);
        incr search_trees;
        List.iter (fun v -> trees_of.(v) <- st :: trees_of.(v)) members)
      built
  done;
  let zoom = Zoom.build h in
  let lookup =
    { Ni_route.first_level = min_level; top_level = top;
      hub = (fun ~src ~level -> Zoom.step zoom src level);
      site = Ni_route.site_table ~scheme:"Simple_ni" ~n sites;
      label = underlying.Scheme.label }
  in
  let t =
    { Ni_scheme.name = "simple name-independent (Thm 1.4)";
      degraded_name = "simple name-independent (Thm 1.4, degraded)";
      metric = m; naming; underlying; lookup; trees_of;
      link_bits = (fun _ -> 0) }
  in
  if Trace.enabled ctx then begin
    Trace.counter ctx "simple_ni.search_trees" (float_of_int !search_trees);
    Scheme.table_counters ctx "simple_ni" (Ni_scheme.table_bits t) n
  end;
  t

let to_scheme = Ni_scheme.to_scheme
