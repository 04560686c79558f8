module Metric = Cr_metric.Metric

let greedy m ~r ~candidates ~seed =
  let net = ref (List.sort_uniq Int.compare seed) in
  let far_from_net v =
    List.for_all (fun y -> Metric.dist m v y >= r) !net
  in
  List.iter
    (fun v -> if far_from_net v then net := v :: !net)
    (List.sort Int.compare candidates);
  List.sort Int.compare !net
