module Metric = Cr_metric.Metric

type t = {
  metric : Metric.t;
  levels : Net_levels.t;
}

let build ?obs m =
  let ctx = Cr_obs.Trace.resolve obs in
  Cr_obs.Trace.span ctx "hierarchy.build" (fun () ->
      let levels =
        Net_levels.build (Metric.graph m) ~top_level:(Metric.levels m)
      in
      if Cr_obs.Trace.enabled ctx then begin
        Cr_obs.Trace.counter ctx "hierarchy.levels"
          (float_of_int (Net_levels.top_level levels + 1));
        Cr_obs.Trace.counter ctx "hierarchy.net_points"
          (float_of_int (Net_levels.net_points levels))
      end;
      { metric = m; levels })

let metric h = h.metric
let top_level h = Net_levels.top_level h.levels
let net h i = Net_levels.net h.levels i
let mem h ~level v = Net_levels.mem h.levels ~level v
let net_radius = Net_levels.net_radius
let nearest_net_point h ~level v =
  Net_levels.nearest_net_point h.levels ~level v
