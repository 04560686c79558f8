module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Ball_packing = Cr_packing.Ball_packing
module Voronoi = Cr_packing.Voronoi
module Tree = Cr_tree.Tree
module Interval_routing = Cr_tree.Interval_routing
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Trace = Cr_obs.Trace

type level_info = {
  voronoi : Voronoi.t;
  routers : (int, Interval_routing.t) Hashtbl.t;  (* center -> T_c(j) *)
  search : (int, Search_tree.t) Hashtbl.t;  (* center -> T'(c, r_c(j)) *)
}

type t = {
  nt : Netting_tree.t;
  metric : Metric.t;
  rings : Rings.t;
  levels_j : level_info array;
  trees_of : Search_tree.t list array;  (* search trees containing a node *)
  path_bits : int array;  (* Lemma 4.3 next-hop storage charged per node *)
  zoom : Zoom.t;  (* zooming sequences for the netting-descent fallback *)
  fallbacks : int Atomic.t;
      (* atomic: routes (and hence fallbacks) may run on several domains
         during parallel workload evaluation *)
}

let cell_tree m voronoi center =
  let nodes = Voronoi.cell voronoi ~center in
  Tree.of_parents ~root:center ~nodes
    ~parent:(fun v -> Voronoi.parent voronoi v)
    ~weight:(fun v ->
      match Graph.edge_weight (Metric.graph m) v (Voronoi.parent voronoi v) with
      | Some w -> w
      | None -> assert false (* Dijkstra predecessors are graph neighbors *))

(* Charge the Lemma 4.3 storage: every node on the canonical shortest path
   realizing a net virtual edge keeps next-hop entries in both directions;
   chained nodes keep a local tree-routing label. *)
let charge_paths m st path_bits =
  let tree = Search_tree.tree st in
  let n = Metric.n m in
  let hop_bits = 2 * Bits.id_bits n in
  List.iter
    (fun v ->
      match Tree.parent tree v with
      | None -> ()
      | Some (p, _) ->
        if Search_tree.is_chained st v then
          path_bits.(v) <- path_bits.(v) + Bits.range_bits n
        else
          List.iter
            (fun x -> path_bits.(x) <- path_bits.(x) + hop_bits)
            (Metric.shortest_path m ~src:v ~dst:p))
    (Tree.nodes tree)

let table_bits t v =
  let n = Metric.n t.metric in
  let per_j =
    Array.fold_left
      (fun acc lv ->
        let c = Voronoi.owner lv.voronoi v in
        let router = Hashtbl.find lv.routers c in
        acc + Bits.id_bits n (* center's local label l(c; c, j) *)
        + Bits.id_bits n (* parent pointer in T_c(j) *)
        + Interval_routing.table_bits router v)
      0 t.levels_j
  in
  let search_bits =
    List.fold_left
      (fun acc st -> acc + Search_tree.table_bits st v)
      0 t.trees_of.(v)
  in
  Rings.table_bits t.rings v + per_j + search_bits + t.path_bits.(v)

let build ?obs ?(pool = Cr_par.Pool.default ()) nt ~epsilon =
  let ctx = Trace.resolve obs in
  Trace.span ctx "scale_free_labeled.build" @@ fun () ->
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let n = Metric.n m in
  let rings =
    Cr_par.Pool.stage ctx pool "scale_free_labeled.rings" (fun () ->
        Rings.build ~pool nt ~epsilon ~mode:Rings.Selected)
  in
  let eps_eff = Rings.effective_epsilon rings in
  let level_cap = max 1 (Bits.ceil_log2 n) in
  let trees_of = Array.make n [] in
  let path_bits = Array.make n 0 in
  let packings = Ball_packing.build_all m in
  let levels_j =
    Cr_par.Pool.stage ctx pool "scale_free_labeled.packings" @@ fun () ->
    Array.map
      (fun packing ->
        let j = Ball_packing.size_exponent packing in
        let centers = Ball_packing.centers packing in
        let voronoi = Voronoi.build m ~centers in
        let routers = Hashtbl.create (List.length centers) in
        let search = Hashtbl.create (List.length centers) in
        (* Balls are independent given the level's Voronoi partition:
           build each cell's router and search tree in parallel, then
           register sequentially in ball order (trees_of consing and the
           shared path_bits accumulator must see the sequential order). *)
        let built =
          Cr_par.Pool.parallel_map_list pool
            (fun (ball : Ball_packing.ball) ->
              let c = ball.center in
              let router = Interval_routing.build (cell_tree m voronoi c) in
              (* Pairs: cell nodes within the extended radius r_c(j+1)
                 (size clamped to n at the top scale). *)
              let ext_size = min (1 lsl (j + 1)) n in
              let ext_radius = Metric.radius_of_size m c ext_size in
              let pairs =
                List.filter_map
                  (fun v ->
                    if Metric.dist m c v <= ext_radius then
                      Some
                        ( Netting_tree.label nt v,
                          Interval_routing.label router v )
                    else None)
                  (Voronoi.cell voronoi ~center:c)
              in
              let st =
                Search_tree.build m ~epsilon:eps_eff ~center:c
                  ~radius:(Float.max ball.radius 1.0)
                  ~members:(Array.to_list ball.members)
                  ~level_cap:(Some level_cap) ~pairs ~universe:n
              in
              (c, router, st))
            (Ball_packing.balls packing)
        in
        List.iter
          (fun (c, router, st) ->
            Hashtbl.replace routers c router;
            Hashtbl.replace search c st;
            List.iter
              (fun v -> trees_of.(v) <- st :: trees_of.(v))
              (Search_tree.members st);
            charge_paths m st path_bits)
          built;
        { voronoi; routers; search })
      packings
  in
  let t =
    { nt; metric = m; rings; levels_j; trees_of; path_bits;
      zoom = Zoom.build h; fallbacks = Atomic.make 0 }
  in
  if Trace.enabled ctx then begin
    Trace.counter ctx "scale_free_labeled.packing_scales"
      (float_of_int (Array.length levels_j));
    Trace.counter ctx "scale_free_labeled.search_trees"
      (float_of_int
         (Array.fold_left
            (fun acc lv -> acc + Hashtbl.length lv.search)
            0 levels_j));
    Scheme.table_counters ctx "scale_free_labeled" (table_bits t) n
  end;
  t

let label t v = Netting_tree.label t.nt v

let rings t = t.rings
let netting_tree t = t.nt
let packing_scales t = Array.length t.levels_j
let scale_voronoi t ~scale = t.levels_j.(scale).voronoi
let scale_router t ~scale ~center = Hashtbl.find t.levels_j.(scale).routers center
let scale_search t ~scale ~center = Hashtbl.find t.levels_j.(scale).search center

let top_j t = Array.length t.levels_j - 1

(* Line 7 of Algorithm 5: the scale j with r_u(j) <= 2^i < r_u(j+1). *)
let matching_scale t u i =
  let two_i = Float.pow 2.0 (float_of_int i) in
  let rec go j =
    if j = 0 then 0
    else if Metric.radius_of_size t.metric u (1 lsl j) <= two_i then j
    else go (j - 1)
  in
  go (top_j t)

let fallback t w ~dest_label =
  Atomic.incr t.fallbacks;
  Walker.with_phase w Trace.Fallback (fun () ->
      Netting_descent.walk t.nt
        ~hub:(fun ~src ~level -> Zoom.step t.zoom src level)
        (Walker.mover w) ~dest_label)

type phase_report = {
  exit_level : int;  (* i_t; -1 when the ring phase delivered directly *)
  scale : int;  (* the packing scale j; -1 when direct *)
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

let walk ?(observe = fun (_ : phase_report) -> ()) t w ~dest_label =
  let start_cost = Walker.cost w in
  let dest = Netting_tree.node_of_label t.nt dest_label in
  let eps_eff = Rings.effective_epsilon t.rings in
  (* Lines 1-6: greedy ring descent. *)
  let rec ring_phase prev_level =
    let at = Walker.position w in
    if at = dest then None
    else
      match Rings.minimal_cover_level t.rings ~at ~label:dest_label with
      | None -> Some None  (* no covering ring: fallback *)
      | Some (0, x) ->
        (* A level-0 range is a singleton, so x is the destination itself:
           finish along the shortest path. (At i_t = 0 the paper's Claim 4.6
           premise "i_t - 1 not in R(u_t)" is vacuous and the packing phase
           may genuinely miss, e.g. at Voronoi tie boundaries; walking the
           remaining <= 2^0/eps distance directly realizes the d(u_t, v)
           term of Eqn 19 exactly.) *)
        Walker.walk_shortest_path w x;
        None
      | Some (i, x) ->
        let two_i = Float.pow 2.0 (float_of_int i) in
        let threshold = (two_i /. 2.0 /. eps_eff) -. two_i in
        if i <= prev_level && Metric.dist t.metric at x >= threshold then begin
          Walker.step w (Metric.next_hop t.metric ~src:at ~dst:x);
          ring_phase i
        end
        else Some (Some i)
  in
  match
    Walker.with_phase w Trace.Net_phase (fun () -> ring_phase max_int)
  with
  | None ->
    (* arrived during the ring phase *)
    observe
      { exit_level = -1; scale = -1; ring_cost = Walker.cost w -. start_cost;
        climb_cost = 0.0; search_cost = 0.0; tree_cost = 0.0 }
  | Some None -> fallback t w ~dest_label
  | Some (Some i_t) ->
    let ring_cost = Walker.cost w -. start_cost in
    let u_t = Walker.position w in
    let j = matching_scale t u_t i_t in
    let lv = t.levels_j.(j) in
    let c = Voronoi.owner lv.voronoi u_t in
    (* Line 8: climb T_c(j) to its root c along graph edges. *)
    let rec climb () =
      let at = Walker.position w in
      if at <> c then begin
        Walker.step w (Voronoi.parent lv.voronoi at);
        climb ()
      end
    in
    Walker.with_phase w Trace.Voronoi_phase climb;
    let climb_cost = Walker.cost w -. start_cost -. ring_cost in
    (* Line 9: search tree II lookup of the local tree label. *)
    let st = Hashtbl.find lv.search c in
    (match
       Walker.with_phase w Trace.Search_tree_phase (fun () ->
           let result = Search_tree.search st ~key:dest_label in
           Search_tree.pay result.legs
             ~jump:(fun v c -> Walker.teleport w v ~cost:c)
             ~goto:(Walker.walk_shortest_path w);
           result.data)
     with
    | Some local_label ->
      let search_cost =
        Walker.cost w -. start_cost -. ring_cost -. climb_cost
      in
      (* Line 10: tree-route from c to the destination. *)
      let router = Hashtbl.find lv.routers c in
      let path, _cost =
        Interval_routing.route router ~src:c ~dest_label:local_label
      in
      Walker.with_phase w Trace.Voronoi_phase (fun () ->
          match path with
          | [] -> ()
          | _ :: rest -> List.iter (fun v -> Walker.step w v) rest);
      if Walker.position w <> dest then fallback t w ~dest_label
      else
        observe
          { exit_level = i_t; scale = j; ring_cost; climb_cost; search_cost;
            tree_cost =
              Walker.cost w -. start_cost -. ring_cost -. climb_cost
              -. search_cost }
    | None -> fallback t w ~dest_label)

let fallback_count t = Atomic.get t.fallbacks

let label_bits t = Bits.id_bits (Metric.n t.metric)

let header_bits t =
  let top = Hierarchy.top_level (Netting_tree.hierarchy t.nt) in
  (* destination label, previous ring level, phase tag, and during the tree
     phase the local tree label *)
  (2 * label_bits t) + Bits.ceil_log2 (top + 2) + 2

let route t ~src ~dest_label =
  let w =
    Walker.create t.metric ~start:src
      ~max_hops:(Walker.labeled_budget (Metric.n t.metric))
  in
  walk t w ~dest_label;
  { Scheme.cost = Walker.cost w; hops = Walker.hops w }

let to_scheme t =
  { Scheme.l_name = "scale-free labeled (Thm 1.2)";
    label = label t;
    route_to_label = (fun ~src ~dest_label -> route t ~src ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = label_bits t;
    l_header_bits = header_bits t }

let to_underlying t =
  { Underlying.u_name = "scale-free labeled (Thm 1.2)";
    u_label = label t;
    u_walk = (fun w ~dest_label -> walk t w ~dest_label);
    u_table_bits = table_bits t;
    u_label_bits = label_bits t;
    u_header_bits = header_bits t }
