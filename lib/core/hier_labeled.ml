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

let walk t w ~dest_label =
  Walker.with_phase w Trace.Net_phase @@ fun () ->
  let dest = Netting_tree.node_of_label t.nt dest_label in
  while Walker.position w <> dest do
    let at = Walker.position w in
    match Rings.minimal_cover_level t.rings ~at ~label:dest_label with
    | None ->
      (* The top-level ring always covers every label (the root's range is
         all of [0, n)), so this is unreachable. *)
      assert false
    | Some (_, x) ->
      (* x <> at: if the covering ring member were the current node at a
         positive level, the next level down would also cover (the zooming
         step is within the ring radius), contradicting minimality; at
         level 0 it would mean we already arrived. *)
      Walker.step w (Metric.next_hop t.metric ~src:at ~dst:x)
  done

let label_bits t = Bits.id_bits (Metric.n t.metric)

let header_bits t =
  let top = Hierarchy.top_level (Netting_tree.hierarchy t.nt) in
  label_bits t + Bits.ceil_log2 (top + 1)

let route t ~src ~dest_label =
  let w =
    Walker.create t.metric ~start:src
      ~max_hops:(Walker.labeled_budget (Metric.n t.metric))
  in
  walk t w ~dest_label;
  { Scheme.cost = Walker.cost w; hops = Walker.hops w }

let to_scheme t =
  { Scheme.l_name = "hier-labeled (Lemma 3.1)";
    label = label t;
    route_to_label = (fun ~src ~dest_label -> route t ~src ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = label_bits t;
    l_header_bits = header_bits t }

let to_underlying t =
  { Underlying.u_name = "hier-labeled (Lemma 3.1)";
    u_label = label t;
    u_walk = (fun w ~dest_label -> walk t w ~dest_label);
    u_table_bits = table_bits t;
    u_label_bits = label_bits t;
    u_header_bits = header_bits t }
