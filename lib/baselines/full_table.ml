module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload

let budget n = 10 + (4 * n)

let route m ~src ~dst =
  let w = Walker.create m ~start:src ~max_hops:(budget (Metric.n m)) in
  Walker.walk_shortest_path w dst;
  { Scheme.cost = Walker.cost w; hops = Walker.hops w }

let labeled m =
  let n = Metric.n m in
  { Scheme.l_name = "full-table";
    label = Fun.id;
    route_to_label = (fun ~src ~dest_label -> route m ~src ~dst:dest_label);
    l_table_bits = (fun _ -> (n - 1) * Bits.id_bits n);
    l_label_bits = Bits.id_bits n;
    l_header_bits = Bits.id_bits n }

let name_independent m (naming : Workload.naming) =
  let n = Metric.n m in
  { Scheme.ni_name = "full-table";
    route_to_name =
      (fun ~src ~dest_name ->
        route m ~src ~dst:naming.Workload.node_of.(dest_name));
    ni_table_bits =
      (fun _ -> ((n - 1) * Bits.id_bits n) + (n * Bits.id_bits n));
    ni_header_bits = Bits.id_bits n }
