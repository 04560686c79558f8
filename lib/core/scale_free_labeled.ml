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

type router = {
  ring : Rings.t;
  far_bound : float array;  (* level i -> (2^i / 2 / eps) - 2^i *)
  n : int;
  scales : int;
  radii : float array;  (* u * scales + j -> r_u(2^j) *)
  owner : int array;  (* j * n + v -> v's Voronoi center *)
  parent : int array;  (* j * n + v -> v's parent in T_c(j) *)
  search : (int, Search_tree.t) Hashtbl.t array;  (* c -> T'(c, r_c(j)) *)
  cell_routers : (int, Interval_routing.t) Hashtbl.t array;  (* c -> T_c(j) *)
  nt : Netting_tree.t;
  hubs : int array;  (* v * (top + 1) + i -> v(i), for the fallback *)
  fallbacks : int Atomic.t;
      (* atomic: routes (and hence fallbacks) may run on several domains
         during parallel workload evaluation *)
}

type t = {
  metric : Metric.t;
  router : router;
  trees_of : Search_tree.t list array;  (* search trees containing a node *)
  path_bits : int array;  (* Lemma 4.3 next-hop storage charged per node *)
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
  let n = Metric.n m in
  let hop_bits = 2 * Bits.id_bits n in
  List.iter
    (fun v ->
      match Search_tree.parent st v with
      | None -> ()
      | Some p ->
        if Search_tree.is_chained st v then
          path_bits.(v) <- path_bits.(v) + Bits.range_bits n
        else
          List.iter
            (fun x -> path_bits.(x) <- path_bits.(x) + hop_bits)
            (Metric.shortest_path m ~src:v ~dst:p))
    (Search_tree.members st)

let table_bits t v =
  let r = t.router in
  let n = r.n in
  let per_j = ref 0 in
  for j = 0 to r.scales - 1 do
    let router = Hashtbl.find r.cell_routers.(j) r.owner.((j * n) + v) in
    per_j :=
      !per_j + Bits.id_bits n (* center's local label l(c; c, j) *)
      + Bits.id_bits n (* parent pointer in T_c(j) *)
      + Interval_routing.table_bits router v
  done;
  let search_bits =
    List.fold_left
      (fun acc st -> acc + Search_tree.table_bits st v)
      0 t.trees_of.(v)
  in
  Rings.table_bits r.ring v + !per_j + search_bits + t.path_bits.(v)

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
  let levels =
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
        (voronoi, routers, search))
      packings
  in
  let scales = Array.length levels in
  (* j * n + v -> [f] of scale j's Voronoi partition at v *)
  let per_scale f =
    Array.init (scales * n) (fun k ->
        let voronoi, _, _ = levels.(k / n) in
        f voronoi (k mod n))
  in
  let top = Hierarchy.top_level h in
  let far_bound =
    Array.init (top + 1) (fun i ->
        let two_i = Float.pow 2.0 (float_of_int i) in
        (two_i /. 2.0 /. eps_eff) -. two_i)
  in
  let zoom = Zoom.build h in
  let router =
    { ring = rings; far_bound; n; scales;
      radii =
        Array.init (n * scales) (fun k ->
            Metric.radius_of_size m (k / scales) (1 lsl (k mod scales)));
      owner = per_scale Voronoi.owner; parent = per_scale Voronoi.parent;
      search = Array.map (fun (_, _, search) -> search) levels;
      cell_routers = Array.map (fun (_, routers, _) -> routers) levels;
      nt;
      hubs =
        Array.init (n * (top + 1)) (fun k ->
            Zoom.step zoom (k / (top + 1)) (k mod (top + 1)));
      fallbacks = Atomic.make 0 }
  in
  let t = { metric = m; router; trees_of; path_bits } in
  if Trace.enabled ctx then begin
    Trace.counter ctx "scale_free_labeled.packing_scales"
      (float_of_int scales);
    Trace.counter ctx "scale_free_labeled.search_trees"
      (float_of_int
         (Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0
            router.search));
    Scheme.table_counters ctx "scale_free_labeled" (table_bits t) n
  end;
  t

let label t v = Netting_tree.label t.router.nt v

let netting_tree t = t.router.nt
let router t = t.router

(* Line 7 of Algorithm 5: the scale j with r_u(j) <= 2^i < r_u(j+1). *)
let matching_scale r u i =
  let two_i = Float.pow 2.0 (float_of_int i) in
  let rec go j =
    if j = 0 then 0
    else if r.radii.((u * r.scales) + j) <= two_i then j
    else go (j - 1)
  in
  go (r.scales - 1)

let fallback r w ~dest_label =
  Atomic.incr r.fallbacks;
  let width = Array.length r.hubs / r.n in
  Walker.with_phase w Trace.Fallback (fun () ->
      Netting_descent.walk r.nt
        ~hub:(fun ~src ~level -> r.hubs.((src * width) + level))
        w ~dest_label)

type phase_report = {
  exit_level : int;  (* i_t; -1 when the ring phase delivered directly *)
  scale : int;  (* the packing scale j; -1 when direct *)
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

(* The ring phase's outcomes besides an exit level i_t >= 1. *)
let arrived = -1
let uncovered = -2

(* Lines 1-6: greedy ring descent while the minimal covering level does
   not grow and its member stays far. *)
let rec ring_phase r w ~dest ~dest_label prev_level =
  let at = Walker.position w in
  if at = dest then arrived
  else
    let e = Rings.cover r.ring ~at ~label:dest_label in
    if e < 0 then uncovered
    else
      let i = Rings.entry_level r.ring e in
      if i = 0 then begin
        (* A level-0 range is a singleton, so the member is the destination
           itself: finish along the shortest path. (At i_t = 0 the paper's
           Claim 4.6 premise "i_t - 1 not in R(u_t)" is vacuous and the
           packing phase may genuinely miss, e.g. at Voronoi tie
           boundaries; walking the remaining <= 2^0/eps distance directly
           realizes the d(u_t, v) term of Eqn 19 exactly.) *)
        Walker.walk_shortest_path w (Rings.entry_member r.ring e);
        arrived
      end
      else if i <= prev_level && Rings.entry_dist r.ring e >= r.far_bound.(i)
      then begin
        Walker.step w (Rings.entry_hop r.ring e);
        ring_phase r w ~dest ~dest_label i
      end
      else i

(* Line 8: climb T_c(j) to its root c along graph edges. *)
let rec climb r w ~scale c =
  let at = Walker.position w in
  if at <> c then begin
    Walker.step w r.parent.((scale * r.n) + at);
    climb r w ~scale c
  end

let route_over ?observe r w ~dest ~dest_label =
  (* the cost reads and the report happen only for an observer *)
  let observed = Option.is_some observe in
  let start = if observed then Walker.cost w else 0.0 in
  let i_t =
    Walker.with_phase w Trace.Net_phase (fun () ->
        ring_phase r w ~dest ~dest_label max_int)
  in
  if i_t = uncovered then fallback r w ~dest_label
  else
    let ring_cost = if observed then Walker.cost w -. start else 0.0 in
    if i_t = arrived then
      match observe with
      | Some observe ->
        observe
          { exit_level = -1; scale = -1; ring_cost; climb_cost = 0.0;
            search_cost = 0.0; tree_cost = 0.0 }
      | None -> ()
    else
      let u_t = Walker.position w in
      let j = matching_scale r u_t i_t in
      let c = r.owner.((j * r.n) + u_t) in
      Walker.with_phase w Trace.Voronoi_phase (fun () -> climb r w ~scale:j c);
      let climb_cost =
        if observed then Walker.cost w -. start -. ring_cost else 0.0
      in
      (* Line 9: search tree II lookup of the local tree label. *)
      let st = Hashtbl.find r.search.(j) c in
      match
        Walker.with_phase w Trace.Search_tree_phase (fun () ->
            Search_tree.walk st ~key:dest_label
              ~jump:(fun v cost -> Walker.teleport w v ~cost)
              ~goto:(fun v -> Walker.walk_shortest_path w v))
      with
      | None -> fallback r w ~dest_label
      | Some local_label -> (
        let search_cost =
          if observed then Walker.cost w -. start -. ring_cost -. climb_cost
          else 0.0
        in
        (* Line 10: tree-route from c to the destination. *)
        let path, _cost =
          Interval_routing.route (Hashtbl.find r.cell_routers.(j) c) ~src:c
            ~dest_label:local_label
        in
        Walker.with_phase w Trace.Voronoi_phase (fun () ->
            match path with
            | [] -> ()
            | _ :: rest -> List.iter (fun v -> Walker.step w v) rest);
        if Walker.position w <> dest then fallback r w ~dest_label
        else
          match observe with
          | Some observe ->
            observe
              { exit_level = i_t; scale = j; ring_cost; climb_cost;
                search_cost;
                tree_cost =
                  Walker.cost w -. start -. ring_cost -. climb_cost
                  -. search_cost }
          | None -> ())

let walk ?observe t w ~dest_label =
  route_over ?observe t.router w
    ~dest:(Netting_tree.node_of_label t.router.nt dest_label) ~dest_label

let fallback_count t = Atomic.get t.router.fallbacks

let label_bits t = Bits.id_bits (Metric.n t.metric)

let header_bits t =
  let top = Hierarchy.top_level (Netting_tree.hierarchy t.router.nt) in
  (* destination label, previous ring level, phase tag, and during the tree
     phase the local tree label *)
  (2 * label_bits t) + Bits.ceil_log2 (top + 2) + 2

let to_underlying t =
  { Scheme.l_name = "scale-free labeled (Thm 1.2)";
    label = label t;
    walk = (fun w ~dest_label -> walk t w ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = label_bits t;
    l_header_bits = header_bits t }
