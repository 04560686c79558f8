type outcome = {
  cost : float;
  hops : int;
}

type labeled = {
  l_name : string;
  label : int -> int;
  walk : Walker.t -> dest_label:int -> unit;
  l_table_bits : int -> int;
  l_label_bits : int;
  l_header_bits : int;
}

type name_independent = {
  ni_name : string;
  route_to_name : src:int -> dest_name:int -> outcome;
  ni_table_bits : int -> int;
  ni_header_bits : int;
}

type route_status =
  | Delivered
  | Rerouted
  | Undeliverable

type degraded_outcome = {
  d_cost : float;
  d_hops : int;
  d_status : route_status;
  d_reroutes : int;
}

type degraded = {
  dg_name : string;
  dg_route : src:int -> dest_name:int -> degraded_outcome;
}

let route_labeled m s ~src ~dst =
  let w =
    Walker.create m ~start:src
      ~max_hops:(Walker.labeled_budget (Cr_metric.Metric.n m))
  in
  s.walk w ~dest_label:(s.label dst);
  { cost = Walker.cost w; hops = Walker.hops w }

let with_name_directory m (naming : Workload.naming) s =
  let n = Cr_metric.Metric.n m in
  { ni_name = s.l_name;
    route_to_name =
      (fun ~src ~dest_name ->
        route_labeled m s ~src ~dst:naming.Workload.node_of.(dest_name));
    ni_table_bits =
      (fun v -> s.l_table_bits v + (n * Cr_metric.Bits.id_bits n));
    ni_header_bits = s.l_header_bits }

let summarize_max bits n =
  let best = ref 0 in
  for v = 0 to n - 1 do
    let b = bits v in
    if b > !best then best := b
  done;
  !best

let summarize_avg bits n =
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + bits v
  done;
  float_of_int !total /. float_of_int n

(* Build-time table-size counters: emitted only when a trace context is
   live, so untraced builds skip the O(n) sweep. *)
let table_counters ctx name bits n =
  if Cr_obs.Trace.enabled ctx then begin
    Cr_obs.Trace.counter ctx
      (name ^ ".table_bits.max")
      (float_of_int (summarize_max bits n));
    Cr_obs.Trace.counter ctx (name ^ ".table_bits.avg") (summarize_avg bits n)
  end

let max_table_bits s n = summarize_max s.l_table_bits n
let avg_table_bits s n = summarize_avg s.l_table_bits n
let ni_max_table_bits s n = summarize_max s.ni_table_bits n
let ni_avg_table_bits s n = summarize_avg s.ni_table_bits n
