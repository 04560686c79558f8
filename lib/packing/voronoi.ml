module Metric = Cr_metric.Metric
module Dijkstra = Cr_metric.Dijkstra

type t = {
  owner : int array;
  parent : int array;
}

let build m ~centers =
  let centers = List.sort_uniq Int.compare centers in
  let _, owner, parent = Dijkstra.multi_source (Metric.graph m) centers in
  { owner; parent }

let owner t v = t.owner.(v)
let parent t v = t.parent.(v)

let cell t ~center =
  let acc = ref [] in
  for v = Array.length t.owner - 1 downto 0 do
    if t.owner.(v) = center then acc := v :: !acc
  done;
  !acc
