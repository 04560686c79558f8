module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Cost = Cr_obs.Cost
module Live = Cr_obs.Live
module Pool = Cr_par.Pool
module Rings = Cr_core.Rings
module Hier_labeled = Cr_core.Hier_labeled
module Scale_free_labeled = Cr_core.Scale_free_labeled
module Scale_free_ni = Cr_core.Scale_free_ni
module Ni_scheme = Cr_core.Ni_scheme
module Ni_route = Cr_core.Ni_route
module Landmark = Cr_baselines.Landmark

(* {2 Compiled per-scheme state} *)

type hier = {
  h_rings : Rings.t;  (* the scheme's own store *)
  h_label : int array;  (* node -> netting-tree label *)
  h_node_of : int array;  (* label -> node *)
}

type sfl = {
  s_label : int array;
  s_node_of : int array;
  s_router : Scale_free_labeled.router;  (* the scheme's, as it is *)
  s_scheme : Scale_free_labeled.t;  (* for the directories' bit count *)
}

type under =
  | U_hier of hier
  | U_sfl of sfl

(* Either name-independent scheme: its lookup loop, reading hubs from the
   compiled rows and travelling through the compiled labeled engine. *)
type ni = {
  i_lookup : Ni_route.t;  (* the scheme's sites, shared immutable views *)
  i_under : under;
  i_hub : int array;  (* src * (top + 1) + level -> src(level) *)
  i_name_of : int array;  (* node -> name *)
  i_dir_bits : int -> int;  (* the scheme's table share above the labeled one *)
}

type full = { t_rows : int array (* src * n + dst -> first hop; -1 diag *) }

type lm = {
  m_home : int array;
  m_home_hop : int array;  (* first hop toward home; -1 at landmarks *)
  m_is_lm : bool array;
  m_bunch_off : int array;  (* n + 1 *)
  m_bunch : int array;  (* bunch members, sorted; full rows at landmarks *)
  m_bunch_hop : int array;  (* aligned first hops *)
  m_bits : int array;
}

type data =
  | Hier of hier
  | Sfl of sfl
  | Ni of ni
  | Full of full
  | Lm of lm

type t = {
  data : data;
  metric : Metric.t;
  adj_words : int;  (* [packed_adjacency_words metric] *)
  n : int;
  name : string;
  kind : string;
  budget : int;  (* the scheme's walker hop budget *)
}

let under_label u v =
  match u with U_hier h -> h.h_label.(v) | U_sfl s -> s.s_label.(v)

(* {2 Drivers}

   Every driver moves the packet on a [Walker.t]. The labeled engines run
   their scheme's own forwarding function ([Hier_labeled.route_over],
   [Scale_free_labeled.route_over]) over the scheme's ring store; the
   name-independent engines run the schemes' own lookup loop ([Ni_route])
   over compiled hub rows and a compiled labeled engine. The baseline
   drivers replay their scheme's routes from compiled rows. *)

let drive_hier h w ~dest_label =
  Hier_labeled.route_over ~next_hop:(Rings.next_hop h.h_rings)
    ~dest:h.h_node_of.(dest_label) w ~dest_label

let drive_sfl s w ~dest_label =
  Scale_free_labeled.route_over s.s_router w ~dest:s.s_node_of.(dest_label)
    ~dest_label

let drive_under u w ~dest_label =
  match u with
  | U_hier h -> drive_hier h w ~dest_label
  | U_sfl s -> drive_sfl s w ~dest_label

let rec lm_find l dst lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = l.m_bunch.(mid) in
    if x = dst then mid
    else if x < dst then lm_find l dst (mid + 1) hi
    else lm_find l dst lo (mid - 1)

let drive_lm l w ~dst =
  let src = Walker.position w in
  if src <> dst then begin
    (* in-bunch iff dst is in the compiled row (rows hold exactly the
       strict bunch; full rows at landmarks match is_landmark || ...) *)
    let e = lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1) in
    if e < 0 then Walker.walk_shortest_path w l.m_home.(src);
    Walker.walk_shortest_path w dst
  end

let drive t w ~dst =
  match t.data with
  | Hier h -> drive_hier h w ~dest_label:h.h_label.(dst)
  | Sfl s -> drive_sfl s w ~dest_label:s.s_label.(dst)
  | Ni ni ->
    Ni_route.walk ni.i_lookup w
      ~travel:(fun dest_label -> drive_under ni.i_under w ~dest_label)
      ~dest_name:ni.i_name_of.(dst)
  | Full _ -> Walker.walk_shortest_path w dst
  | Lm l -> drive_lm l w ~dst

(* {2 Serving API} *)

let scheme_name t = t.name
let n t = t.n

let check_endpoint t who x =
  if x < 0 || x >= t.n then
    invalid_arg ("Cr_serve.Engine: " ^ who ^ " out of range")

let walk t w ~dst =
  check_endpoint t "dst" dst;
  drive t w ~dst

(* Served routes run untraced: [batch] serves on pool domains, and a
   trace sink belongs to a single domain. *)
let route ?(cost = Cost.null) ?(live = Live.null) t ~src ~dst =
  check_endpoint t "src" src;
  check_endpoint t "dst" dst;
  let w =
    Walker.create ~obs:Trace.null ~cost ~live t.metric ~start:src
      ~max_hops:t.budget
  in
  if Live.enabled live then Live.tick live;
  drive t w ~dst;
  let c = Walker.cost w and hops = Walker.hops w in
  (* served routes run over an intact graph: every completed drive is a
     delivery, and the stretch sample is cost over the metric distance *)
  if Live.enabled live then
    Live.record live ~src ~dst ~status:Live.Delivered
      ~dist:(Metric.dist t.metric src dst)
      ~cost:c ~hops;
  { Scheme.cost = c; hops }

(* The route's first move: its driver on a walker whose budget refuses the
   second move. *)
let first_move t ~src ~dst =
  let w = Walker.create ~obs:Trace.null t.metric ~start:src ~max_hops:1 in
  (try drive t w ~dst with Walker.Hop_budget_exhausted -> ());
  let v = Walker.position w in
  if v = src then
    (* a route between distinct endpoints always moves *)
    invalid_arg
      (Printf.sprintf
         "Cr_serve.Engine.next_hop: %s route from node %d to node %d did \
          not move"
         t.kind src dst);
  v

(* Flat engines answer from compiled arrays without allocating; the
   lint's zero-alloc proof walks the whole Rings/lm_find call graph to
   keep it that way. Name-walking engines must replay the route's first
   move on a walker — the exempted path below. *)
let[@cr.zero_alloc] next_hop t ~src ~dst =
  if src = dst then -1
  else
    match t.data with
    | Hier h -> Rings.next_hop h.h_rings ~at:src ~label:h.h_label.(dst)
    | Full f -> f.t_rows.((src * t.n) + dst)
    | Lm l ->
      let e =
        lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1)
      in
      if e >= 0 then l.m_bunch_hop.(e) else l.m_home_hop.(src)
    | Sfl _ | Ni _ ->
      (first_move t ~src ~dst
      [@cr.alloc_ok "name-walking engines replay the route's first move \
                     on a walker; only flat tables serve without \
                     allocating"])

let batch ?obs ?(pool = Pool.default ()) ?(live = Live.null) t pairs =
  let ctx = Trace.resolve obs in
  let out =
    Pool.stage ctx pool
      ("serve.batch." ^ t.kind)
      (fun () ->
        if Live.enabled live then
          (* a live accumulator is single-domain state, and the window
             clock is the routed-message count — serve sequentially so
             the timeline is identical at every CR_DOMAINS (the
             documented observability tax of [~live]) *)
          Array.map (fun (src, dst) -> route ~live t ~src ~dst) pairs
        else
          Pool.parallel_map pool (fun (src, dst) -> route t ~src ~dst) pairs)
  in
  if Trace.enabled ctx then
    Trace.counter ctx
      ("serve." ^ t.kind ^ ".batch.routes")
      (float_of_int (Array.length pairs));
  out

(* {2 Accounting} *)

let under_table_bits u v =
  match u with
  | U_hier b -> Rings.wire_bits b.h_rings v
  | U_sfl s -> Rings.wire_bits s.s_router.ring v

let compiled_bits t v =
  match t.data with
  | Hier h -> Rings.wire_bits h.h_rings v + (2 * Bits.id_bits t.n)
  | Sfl s ->
    (* wire rings + per-scale Voronoi owner/parent ids and a stored
       radius + the shared directories (the scheme's non-ring share) *)
    let idb = Bits.id_bits t.n in
    Rings.wire_bits s.s_router.ring v
    + (s.s_router.scales * ((2 * idb) + Bits.distance_bits))
    + (Scale_free_labeled.table_bits s.s_scheme v
      - Rings.table_bits s.s_router.ring v)
  | Ni ni ->
    (* hub row + name entry + the scheme's directory share + the
       underlying engine's compiled tables *)
    ((ni.i_lookup.Ni_route.top_level + 2) * Bits.id_bits t.n)
    + ni.i_dir_bits v + under_table_bits ni.i_under v
  | Full _ -> (t.n - 1) * Bits.id_bits t.n
  | Lm l -> l.m_bits.(v)

(* {2 Compilation} *)

(* The adjacency's footprint, charged to [bytes_per_node] at its packed
   size: n + 1 row offsets, then a neighbour id and a weight per directed
   edge. Routes read [Graph]'s own rows; this is the size they would take
   as one flat arena. *)
let packed_adjacency_words m =
  let g = Metric.graph m in
  Graph.n g + 1 + (4 * Graph.num_edges g)

let labels_of nt nn =
  let lbl = Array.init nn (fun v -> Netting_tree.label nt v) in
  let node_of = Array.make nn 0 in
  Array.iteri (fun v l -> node_of.(l) <- v) lbl;
  (lbl, node_of)

(* src * (top + 1) + level -> [hub_of src level] *)
let hub_rows ~top ~nn hub_of =
  let rows = Array.make (nn * (top + 1)) 0 in
  for v = 0 to nn - 1 do
    for i = 0 to top do
      rows.((v * (top + 1)) + i) <- hub_of v i
    done
  done;
  rows

let finish ctx t =
  Scheme.table_counters ctx ("serve." ^ t.kind) (compiled_bits t) t.n;
  t

(* The labeled engines serve the scheme's own ring store. *)
let compile_hier ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.hier" @@ fun () ->
  let nt = Hier_labeled.netting_tree scheme in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  let nn = Metric.n m in
  let lbl, node_of = labels_of nt nn in
  finish ctx
    { data =
        Hier
          { h_rings = Hier_labeled.rings scheme; h_label = lbl;
            h_node_of = node_of };
      metric = m; adj_words = packed_adjacency_words m; n = nn;
      name = "hier-labeled (Lemma 3.1)"; kind = "hier";
      budget = Walker.labeled_budget nn }

let compile_scale_free_labeled ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.sfl" @@ fun () ->
  let nt = Scale_free_labeled.netting_tree scheme in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  let nn = Metric.n m in
  let lbl, node_of = labels_of nt nn in
  let s =
    { s_label = lbl; s_node_of = node_of;
      s_router = Scale_free_labeled.router scheme; s_scheme = scheme }
  in
  finish ctx
    { data = Sfl s; metric = m; adj_words = packed_adjacency_words m; n = nn;
      name = "scale-free labeled (Thm 1.2)"; kind = "sfl";
      budget = Walker.labeled_budget nn }

let as_under t =
  match t.data with
  | Hier b -> U_hier b
  | Sfl s -> U_sfl s
  | _ ->
    invalid_arg "Cr_serve.Engine: underlying engine must serve a labeled scheme"

(* Both name-independent engines: the scheme's lookup loop with its hubs
   flattened into rows, travelling through the compiled labeled engine. *)
let compile_ni obs ~kind ~underlying (s : Ni_scheme.t) =
  let ctx = Trace.resolve obs in
  Trace.span ctx ("serve.compile." ^ kind) @@ fun () ->
  let nn = underlying.n in
  if Array.length s.naming.Workload.name_of <> nn then
    invalid_arg ("Cr_serve.Engine.compile: " ^ kind ^ " node count mismatch");
  let under = as_under underlying in
  let lookup = s.lookup in
  let top = lookup.Ni_route.top_level in
  let hub =
    hub_rows ~top ~nn (fun v i -> lookup.Ni_route.hub ~src:v ~level:i)
  in
  let ni =
    { i_lookup =
        { lookup with
          hub = (fun ~src ~level -> hub.((src * (top + 1)) + level));
          label = under_label under };
      i_under = under; i_hub = hub;
      i_name_of = Array.copy s.naming.Workload.name_of;
      i_dir_bits = Ni_scheme.directory_bits s }
  in
  finish ctx
    { data = Ni ni; metric = underlying.metric; adj_words = underlying.adj_words; n = nn;
      name = s.name; kind; budget = Walker.ni_budget nn }

let compile_simple_ni ?obs ?pool:_ ~underlying scheme =
  compile_ni obs ~kind:"simple-ni" ~underlying scheme

let compile_scale_free_ni ?obs ?pool:_ ~underlying scheme =
  compile_ni obs ~kind:"sf-ni" ~underlying (Scale_free_ni.scheme scheme)

let compile_full ?obs ?(pool = Pool.default ()) m =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.full" @@ fun () ->
  let nn = Metric.n m in
  let rows_by_src =
    Pool.parallel_init pool nn (fun src -> Metric.first_hops m ~src)
  in
  let rows = Array.make (nn * nn) (-1) in
  Array.iteri (fun src row -> Array.blit row 0 rows (src * nn) nn) rows_by_src;
  finish ctx
    { data = Full { t_rows = rows }; metric = m;
      adj_words = packed_adjacency_words m; n = nn; name = "full-table";
      kind = "full"; budget = Walker.labeled_budget nn }

let compile_landmark ?obs ?(pool = Pool.default ()) m lm =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.landmark" @@ fun () ->
  let nn = Metric.n m in
  let idb = Bits.id_bits nn in
  let rows =
    Pool.parallel_init pool nn (fun u ->
        let fh = Metric.first_hops m ~src:u in
        let home = Landmark.home lm u in
        let keep v =
          v <> u
          && (Landmark.is_landmark lm u
             || Metric.dist m u v < Metric.dist m u home)
        in
        let members = ref [] in
        for v = nn - 1 downto 0 do
          if keep v then members := v :: !members
        done;
        let mem = Array.of_list !members in
        let hop = Array.map (fun v -> fh.(v)) mem in
        let home_hop = if home = u then -1 else fh.(home) in
        (mem, hop, home_hop))
  in
  let off = Array.make (nn + 1) 0 in
  Array.iteri (fun u (mem, _, _) -> off.(u + 1) <- off.(u) + Array.length mem) rows;
  let bunch = Array.make off.(nn) 0 in
  let bunch_hop = Array.make off.(nn) 0 in
  let home_arr = Array.make nn 0 in
  let home_hop_arr = Array.make nn (-1) in
  let is_lm = Array.make nn false in
  let bits = Array.make nn 0 in
  Array.iteri
    (fun u (mem, hop, home_hop) ->
      Array.blit mem 0 bunch off.(u) (Array.length mem);
      Array.blit hop 0 bunch_hop off.(u) (Array.length hop);
      home_arr.(u) <- Landmark.home lm u;
      home_hop_arr.(u) <- home_hop;
      is_lm.(u) <- Landmark.is_landmark lm u;
      (* member id + next hop per row entry, plus home id and its hop *)
      bits.(u) <- ((2 * Array.length mem) + 2) * idb)
    rows;
  let l =
    { m_home = home_arr; m_home_hop = home_hop_arr; m_is_lm = is_lm;
      m_bunch_off = off; m_bunch = bunch; m_bunch_hop = bunch_hop;
      m_bits = bits }
  in
  finish ctx
    { data = Lm l; metric = m; adj_words = packed_adjacency_words m; n = nn;
      name = "landmark (TZ stretch-3)"; kind = "landmark";
      budget = Walker.labeled_budget nn }

let under_words = function
  | U_hier h ->
    Rings.words h.h_rings + Array.length h.h_label
    + Array.length h.h_node_of
  | U_sfl s ->
    Rings.words s.s_router.ring + Array.length s.s_label
    + Array.length s.s_node_of + Array.length s.s_router.radii
    + Array.length s.s_router.owner + Array.length s.s_router.parent
    + Array.length s.s_router.hubs

let data_words t =
  match t.data with
  | Hier h -> under_words (U_hier h)
  | Sfl s -> under_words (U_sfl s)
  | Ni ni ->
    under_words ni.i_under + Array.length ni.i_hub
    + Array.length ni.i_name_of
  | Full f -> Array.length f.t_rows
  | Lm l ->
    Array.length l.m_home + Array.length l.m_home_hop
    + Array.length l.m_is_lm + Array.length l.m_bunch_off
    + Array.length l.m_bunch + Array.length l.m_bunch_hop
    + Array.length l.m_bits

let bytes_per_node t =
  float_of_int (8 * (data_words t + t.adj_words)) /. float_of_int t.n
