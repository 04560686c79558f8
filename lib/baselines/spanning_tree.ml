module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Tree = Cr_tree.Tree
module Interval_routing = Cr_tree.Interval_routing
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme

let spt m ~root =
  let n = Metric.n m in
  let parent v =
    match Metric.shortest_path m ~src:v ~dst:root with
    | _ :: hop :: _ -> hop
    | _ -> assert false
  in
  Tree.of_parents ~root
    ~nodes:(List.init n Fun.id)
    ~parent
    ~weight:(fun v ->
      match Graph.edge_weight (Metric.graph m) v (parent v) with
      | Some w -> w
      | None -> assert false)

let labeled m ~root =
  let ir = Interval_routing.build (spt m ~root) in
  let walk w ~dest_label =
    match Interval_routing.route ir ~src:(Walker.position w) ~dest_label with
    | [], _ -> ()
    | _ :: rest, _ -> List.iter (fun v -> Walker.step w v) rest
  in
  { Scheme.l_name = "spanning-tree";
    label = Interval_routing.label ir;
    walk;
    l_table_bits = Interval_routing.table_bits ir;
    l_label_bits = Interval_routing.label_bits ir;
    l_header_bits = Interval_routing.label_bits ir }
