module Metric = Cr_metric.Metric

type t = {
  metric : Metric.t;
  top_level : int;
  seq : int array array;  (* seq.(u).(i) = u(i) *)
}

let build h =
  let m = Hierarchy.metric h in
  let top = Hierarchy.top_level h in
  let n = Metric.n m in
  let seq =
    Array.init n (fun u ->
        let s = Array.make (top + 1) u in
        for i = 1 to top do
          s.(i) <- Hierarchy.nearest_net_point h ~level:i s.(i - 1)
        done;
        s)
  in
  { metric = m; top_level = top; seq }

let step z u i =
  if i < 0 || i > z.top_level then invalid_arg "Zoom.step: level out of range";
  z.seq.(u).(i)

let climb_cost z u i =
  if i < 0 || i > z.top_level then
    invalid_arg "Zoom.climb_cost: level out of range";
  let total = ref 0.0 in
  for k = 1 to i do
    total := !total +. Metric.dist z.metric z.seq.(u).(k - 1) z.seq.(u).(k)
  done;
  !total
