module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Trace = Cr_obs.Trace

type t = {
  nt : Netting_tree.t;
  metric : Metric.t;
  rings : Rings.t;
}

let table_bits t v = Rings.table_bits t.rings v

let build ?obs ?(pool = Cr_par.Pool.default ()) nt ~epsilon =
  let ctx = Trace.resolve obs in
  Trace.span ctx "hier_labeled.build" (fun () ->
      let h = Netting_tree.hierarchy nt in
      let m = Hierarchy.metric h in
      let t =
        { nt; metric = m;
          rings =
            Cr_par.Pool.stage ctx pool "hier_labeled.rings" (fun () ->
                Rings.build ~pool nt ~epsilon ~mode:Rings.All_levels) }
      in
      Scheme.table_counters ctx "hier_labeled" (table_bits t) (Metric.n m);
      t)

let label t v = Netting_tree.label t.nt v
let rings t = t.rings
let netting_tree t = t.nt

(* Lemma 3.1's forwarding rule: step toward the minimal covering ring
   member until the packet arrives. *)
let rec descend ~next_hop ~dest w ~dest_label =
  let at = Walker.position w in
  if at <> dest then begin
    let hop = next_hop ~at ~label:dest_label in
    if hop < 0 || hop = at then
      invalid_arg
        (Printf.sprintf
           "Hier_labeled.route_over: node %d has no next hop for label %d" at
           dest_label);
    Walker.step w hop;
    descend ~next_hop ~dest w ~dest_label
  end

let route_over ~next_hop ~dest w ~dest_label =
  Walker.with_phase w Trace.Net_phase (fun () ->
      descend ~next_hop ~dest w ~dest_label)

(* The top-level ring always covers every label (the root's range is all of
   [0, n)), and the covering member is never the current node short of
   arrival: at a positive level the next level down would also cover (the
   zooming step is within the ring radius), contradicting minimality; at
   level 0 it would mean we already arrived. *)
let walk t w ~dest_label =
  route_over ~next_hop:(Rings.next_hop t.rings)
    ~dest:(Netting_tree.node_of_label t.nt dest_label)
    w ~dest_label

let label_bits t = Bits.id_bits (Metric.n t.metric)

let header_bits t =
  let top = Hierarchy.top_level (Netting_tree.hierarchy t.nt) in
  label_bits t + Bits.ceil_log2 (top + 1)

let to_underlying t =
  { Scheme.l_name = "hier-labeled (Lemma 3.1)";
    label = label t;
    (* applied in full: a partial [walk t] goes through curried
       application stubs on every route *)
    walk = (fun w ~dest_label -> walk t w ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = label_bits t;
    l_header_bits = header_bits t }
