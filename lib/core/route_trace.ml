module Metric = Cr_metric.Metric
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks

type t = {
  src : int;
  dst : int;
  distance : float;
  cost : float;
  hops : int;
  events : Trace.event list;
}

let capture ?max_hops m ~src ~dst ~walk =
  let max_hops =
    Option.value max_hops ~default:(Walker.ni_budget (Metric.n m))
  in
  let buf = Sinks.Memory.create () in
  let obs = Trace.make ~clock:(Trace.counting_clock ()) (Sinks.Memory.sink buf) in
  let w = Walker.create ~obs m ~start:src ~max_hops in
  walk w;
  { src; dst;
    distance = Metric.dist m src dst;
    cost = Walker.cost w;
    hops = Walker.hops w;
    events = Sinks.Memory.events buf }

let nodes ~src events =
  src
  :: List.filter_map
       (fun ev ->
         match ev.Trace.body with
         | Trace.Hop { kind = Trace.Edge | Trace.Jump; dst; _ } -> Some dst
         | _ -> None)
       events

let hop_cost = function
  | { Trace.body = Trace.Hop { cost; _ }; _ } -> Some cost
  | _ -> None

let phase_costs t =
  (* Insertion-ordered aggregation: phases appear in first-hop order, which
     for the NI schemes is exactly the paper's level-by-level narrative. *)
  let order = ref [] in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev.Trace.body with
      | Trace.Hop { cost; phase; _ } ->
        (match Hashtbl.find_opt sums phase with
        | Some s -> Hashtbl.replace sums phase (s +. cost)
        | None ->
          order := phase :: !order;
          Hashtbl.add sums phase cost)
      | _ -> ())
    t.events;
  List.rev_map (fun p -> (p, Hashtbl.find sums p)) !order

let phase_cost_total t =
  List.fold_left
    (fun acc ev -> match hop_cost ev with Some c -> acc +. c | None -> acc)
    0.0 t.events

let unphased_hops t =
  List.fold_left
    (fun acc ev ->
      match ev.Trace.body with
      | Trace.Hop { phase = Trace.Unphased; _ } -> acc + 1
      | _ -> acc)
    0 t.events

let sample_pairs m ~count ~seed =
  Workload.sample_pairs ~n:(Metric.n m) ~count ~seed

let fig1_simple_ni ?(epsilon = 0.5) nt ~naming ~pairs =
  let m = Cr_nets.Hierarchy.metric (Netting_tree.hierarchy nt) in
  let hl = Hier_labeled.build nt ~epsilon in
  let scheme =
    Simple_ni.build nt ~epsilon ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  List.map
    (fun (src, dst) ->
      capture m ~src ~dst ~walk:(fun w ->
          Ni_scheme.walk scheme w ~dest_name:naming.Workload.name_of.(dst)))
    pairs

let fig2_scale_free_labeled ?(epsilon = 0.5) nt ~pairs =
  let m = Cr_nets.Hierarchy.metric (Netting_tree.hierarchy nt) in
  let scheme = Scale_free_labeled.build nt ~epsilon in
  List.map
    (fun (src, dst) ->
      capture m ~src ~dst ~walk:(fun w ->
          Scale_free_labeled.walk scheme w
            ~dest_label:(Scale_free_labeled.label scheme dst)))
    pairs

let route_header t =
  Printf.sprintf
    "{\"ev\":\"route\",\"src\":%d,\"dst\":%d,\"distance\":%s,\"cost\":%s,\
     \"hops\":%d}"
    t.src t.dst
    (Sinks.json_float t.distance)
    (Sinks.json_float t.cost)
    t.hops

let to_jsonl routes =
  let buf = Buffer.create 4096 in
  List.iter
    (fun t ->
      Buffer.add_string buf (route_header t);
      Buffer.add_char buf '\n';
      List.iter
        (fun ev ->
          Buffer.add_string buf (Sinks.json_of_event ev);
          Buffer.add_char buf '\n')
        t.events)
    routes;
  Buffer.contents buf

let to_chrome routes =
  let events =
    List.concat_map
      (fun t ->
        { Trace.ts = 0.0;
          body = Trace.Mark { name = Printf.sprintf "route %d->%d" t.src t.dst } }
        :: t.events)
      routes
  in
  Cr_obs.Chrome.to_string events
