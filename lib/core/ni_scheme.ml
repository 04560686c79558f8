module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload

type t = {
  name : string;
  degraded_name : string;
  metric : Metric.t;
  naming : Workload.naming;
  underlying : Scheme.labeled;
  lookup : Ni_route.t;
  trees_of : Search_tree.t list array;
  link_bits : int -> int;
}

let effective_epsilon epsilon = Float.min epsilon 0.4

let travel t w dest_label = t.underlying.Scheme.walk w ~dest_label

let walk ?observe t w ~dest_name =
  Ni_route.walk ?observe t.lookup w ~travel:(travel t w) ~dest_name

let walk_degraded t w ~dest_name =
  let failovers = ref 0 in
  let status =
    match
      Ni_route.run t.lookup w ~travel:(travel t w) ~failovers ~dest_name
    with
    | true -> if !failovers = 0 then Scheme.Delivered else Scheme.Rerouted
    | false -> Scheme.Undeliverable
    | exception Walker.Hop_budget_exhausted -> Scheme.Undeliverable
  in
  (status, !failovers)

let directory_bits t v =
  let search_bits =
    List.fold_left
      (fun acc st -> acc + Search_tree.table_bits st v)
      0 t.trees_of.(v)
  in
  Bits.id_bits (Metric.n t.metric) + search_bits + t.link_bits v

let table_bits t v = directory_bits t v + t.underlying.Scheme.l_table_bits v

(* destination name, current level, retrieved label once found, plus the
   underlying scheme's header *)
let header_bits t =
  (2 * Bits.id_bits (Metric.n t.metric))
  + Bits.ceil_log2 (t.lookup.Ni_route.top_level + 2)
  + t.underlying.Scheme.l_header_bits

let fresh_walker ?failures t ~src =
  Walker.create ?failures t.metric ~start:src
    ~max_hops:(Walker.ni_budget (Metric.n t.metric))

let to_scheme t =
  { Scheme.ni_name = t.name;
    route_to_name =
      (fun ~src ~dest_name ->
        let w = fresh_walker t ~src in
        walk t w ~dest_name;
        { Scheme.cost = Walker.cost w; hops = Walker.hops w });
    ni_table_bits = table_bits t;
    ni_header_bits = header_bits t }

let degraded_scheme t ~failures =
  { Scheme.dg_name = t.degraded_name;
    dg_route =
      (fun ~src ~dest_name ->
        if Cr_sim.Failures.node_failed failures src then
          { Scheme.d_cost = 0.0; d_hops = 0;
            d_status = Scheme.Undeliverable; d_reroutes = 0 }
        else begin
          let w = fresh_walker ~failures t ~src in
          let status, reroutes = walk_degraded t w ~dest_name in
          { Scheme.d_cost = Walker.cost w; d_hops = Walker.hops w;
            d_status = status; d_reroutes = reroutes }
        end) }
