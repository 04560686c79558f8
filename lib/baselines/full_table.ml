module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme

let labeled m =
  let n = Metric.n m in
  { Scheme.l_name = "full-table";
    label = Fun.id;
    walk = (fun w ~dest_label -> Walker.walk_shortest_path w dest_label);
    l_table_bits = (fun _ -> (n - 1) * Bits.id_bits n);
    l_label_bits = Bits.id_bits n;
    l_header_bits = Bits.id_bits n }
