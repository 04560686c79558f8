module Trace = Cr_obs.Trace
module Net_levels = Cr_nets.Net_levels
include Net_levels

let build ?obs ?levels oracle =
  let ctx = Trace.resolve obs in
  Trace.span ctx "scale.nets.build" (fun () ->
      let top =
        match levels with
        | Some l ->
          if l < 1 then invalid_arg "Nets.build: levels must be >= 1" else l
        | None -> Oracle.levels_upper oracle
      in
      let t = Net_levels.build (Oracle.graph oracle) ~top_level:top in
      if Trace.enabled ctx then begin
        Trace.counter ctx "scale.nets.levels" (float_of_int (top + 1));
        Trace.counter ctx "scale.nets.points" (float_of_int (net_points t));
        Trace.counter ctx "scale.nets.settled" (float_of_int (settled_work t))
      end;
      t)
