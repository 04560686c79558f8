module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace

type t = {
  metric : Metric.t;
  naming : Workload.naming;
  underlying : Underlying.t;
  trees_of : Search_tree.t list array;  (* search trees containing a node *)
  lookup : Ni_route.t;
}

let ni_effective_epsilon epsilon = Float.min epsilon 0.4

let table_bits t v =
  let n = Metric.n t.metric in
  let search_bits =
    List.fold_left
      (fun acc st -> acc + Search_tree.table_bits st v)
      0 t.trees_of.(v)
  in
  (* netting-tree parent label + directories + underlying labeled tables *)
  Bits.id_bits n + search_bits + t.underlying.Underlying.u_table_bits v

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
  let eps_eff = ni_effective_epsilon epsilon in
  if min_level < 0 || min_level > top then
    invalid_arg "Simple_ni.build: min_level out of range";
  let sites = Hashtbl.create 64 in  (* (level, net point) -> its tree *)
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
                (naming.Workload.name_of.(v), underlying.Underlying.u_label v))
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
        Hashtbl.replace sites (i, u) (Ni_route.Local st);
        List.iter (fun v -> trees_of.(v) <- st :: trees_of.(v)) members)
      built
  done;
  let zoom = Zoom.build h in
  let lookup =
    { Ni_route.first_level = min_level; top_level = top;
      hub = (fun ~src ~level -> Zoom.step zoom src level);
      site = (fun ~level ~hub -> Hashtbl.find sites (level, hub));
      label = underlying.Underlying.u_label }
  in
  let t = { metric = m; naming; underlying; trees_of; lookup } in
  if Trace.enabled ctx then begin
    Trace.counter ctx "simple_ni.search_trees"
      (float_of_int (Hashtbl.length sites));
    Scheme.table_counters ctx "simple_ni" (table_bits t) n
  end;
  t

let naming t = t.naming
let underlying t = t.underlying
let lookup t = t.lookup

type level_report = Ni_route.level_report = {
  level : int;
  hub : int;
  climb_cost : float;
  search_cost : float;
  found : bool;
}

let travel t w dest_label = t.underlying.Underlying.u_walk w ~dest_label

let walk ?observe t w ~dest_name =
  Ni_route.walk ?observe t.lookup (Walker.mover w) ~travel:(travel t w)
    ~dest_name

let walk_degraded t w ~dest_name =
  Ni_route.walk_degraded t.lookup (Walker.mover w) ~travel:(travel t w)
    ~dest_name

let found_level t = Ni_route.found_level t.lookup

let header_bits t =
  let n = Metric.n t.metric in
  (* destination name, current level, retrieved label once found, plus the
     underlying scheme's header *)
  (2 * Bits.id_bits n) + Bits.ceil_log2 (t.lookup.Ni_route.top_level + 2)
  + t.underlying.Underlying.u_header_bits

let degraded_scheme t ~failures =
  { Scheme.dg_name = "simple name-independent (Thm 1.4, degraded)";
    dg_route =
      (fun ~src ~dest_name ->
        if Cr_sim.Failures.node_failed failures src then
          { Scheme.d_cost = 0.0; d_hops = 0;
            d_status = Scheme.Undeliverable; d_reroutes = 0 }
        else begin
          let w =
            Walker.create ~failures t.metric ~start:src
              ~max_hops:(Walker.ni_budget (Metric.n t.metric))
          in
          let status, reroutes = walk_degraded t w ~dest_name in
          { Scheme.d_cost = Walker.cost w; d_hops = Walker.hops w;
            d_status = status; d_reroutes = reroutes }
        end) }

let to_scheme t =
  { Scheme.ni_name = "simple name-independent (Thm 1.4)";
    route_to_name =
      (fun ~src ~dest_name ->
        let w =
          Walker.create t.metric ~start:src
            ~max_hops:(Walker.ni_budget (Metric.n t.metric))
        in
        walk t w ~dest_name;
        { Scheme.cost = Walker.cost w; hops = Walker.hops w });
    ni_table_bits = table_bits t;
    ni_header_bits = header_bits t }
