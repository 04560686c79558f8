module Metric = Cr_metric.Metric
module Dijkstra = Cr_metric.Dijkstra

type t = {
  centers : int list;
  owner : int array;
  parent : int array;
  dist : float array;
}

let build m ~centers =
  let centers = List.sort_uniq Int.compare centers in
  let g = Metric.graph m in
  let dist, owner, parent = Dijkstra.multi_source g centers in
  { centers; owner; parent; dist }

let owner t v = t.owner.(v)
let parent t v = t.parent.(v)
let dist_to_center t v = t.dist.(v)

let cell t ~center =
  let acc = ref [] in
  for v = Array.length t.owner - 1 downto 0 do
    if t.owner.(v) = center then acc := v :: !acc
  done;
  !acc

let centers t = t.centers
