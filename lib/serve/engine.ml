module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Voronoi = Cr_packing.Voronoi
module Interval_routing = Cr_tree.Interval_routing
module Search_tree = Cr_search.Search_tree
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
module Simple_ni = Cr_core.Simple_ni
module Scale_free_ni = Cr_core.Scale_free_ni
module Underlying = Cr_core.Underlying
module Ni_route = Cr_core.Ni_route
module Netting_descent = Cr_core.Netting_descent
module Landmark = Cr_baselines.Landmark
module Full_table = Cr_baselines.Full_table
module Scheme_codec = Cr_codec.Scheme_codec

(* The serving cursor: walker cost/hop accounting without the trace,
   trail, or failure machinery. *)
type cursor = {
  adj : Flat.t;
  cmetric : Metric.t;
  mutable pos : int;
  mutable total : float;
  mutable steps : int;
  budget : int;
  mutable cur_phase : Trace.phase;
  acct : Cost.t;
  lv : Live.t;
}

let cursor_spend c =
  c.steps <- c.steps + 1;
  if c.steps > c.budget then raise Walker.Hop_budget_exhausted

let cursor_step c v =
  (* adjacency check first, then spend, then move — Walker.step's order *)
  let w = Flat.weight_exn c.adj c.pos v in
  cursor_spend c;
  let src = c.pos in
  c.pos <- v;
  c.total <- c.total +. w;
  if Cost.enabled c.acct then
    Cost.record c.acct ~phase:(Trace.phase_label c.cur_phase) ~src ~dst:v
      ~round:(c.steps - 1) ~bits:0;
  if Live.enabled c.lv then
    (* the same edge charge into the current telemetry window; teleports
       stay off the edge timeline, exactly as in Walker *)
    Live.record_edge c.lv ~src ~dst:v

let cursor_path c dst =
  if dst <> c.pos then
    match Metric.shortest_path c.cmetric ~src:c.pos ~dst with
    | [] | [ _ ] -> ()
    | _ :: rest -> List.iter (fun v -> cursor_step c v) rest

let cursor_jump c v cost =
  cursor_spend c;
  c.pos <- v;
  c.total <- c.total +. cost;
  if Cost.enabled c.acct then begin
    let phase =
      if c.cur_phase = Trace.Unphased then Trace.Teleport else c.cur_phase
    in
    Cost.record c.acct ~phase:(Trace.phase_label phase) ~src:(-1) ~dst:v
      ~round:(c.steps - 1) ~bits:0
  end

let cursor_phase c p f =
  if c.cur_phase <> Trace.Unphased then f ()
  else begin
    c.cur_phase <- p;
    Fun.protect ~finally:(fun () -> c.cur_phase <- Trace.Unphased) f
  end

(* Drivers make forwarding decisions from compiled data and move the
   packet through a [Walker.mover] — bound to a real walker for the
   differential trace harness ([walk]), to the lean cursor for served
   routes, or to the first-move probe. The cursor applies the exact
   [Walker] semantics (same float operations in the same order), so the
   bindings produce identical costs and hop counts. *)
let cursor_mover c =
  { Walker.position = (fun () -> c.pos);
    cost = (fun () -> c.total);
    step = (fun v -> cursor_step c v);
    jump = (fun v cost -> cursor_jump c v cost);
    path = (fun v -> cursor_path c v);
    phase = (fun p f -> cursor_phase c p f) }

(* Probe: runs a driver only up to its first movement — how the per-route
   engines answer [next_hop] without serving the whole route. *)
exception First_move of int

let probe_mover m pos0 =
  { Walker.position = (fun () -> pos0);
    cost = (fun () -> 0.0);
    step = (fun v -> raise (First_move v));
    jump = (fun v _ -> raise (First_move v));
    path =
      (fun v ->
        if v <> pos0 then
          raise (First_move (Metric.next_hop m ~src:pos0 ~dst:v)));
    phase = (fun _ f -> f ()) }

(* {2 Compiled per-scheme state} *)

type hier = {
  h_tables : Tables.t;
  h_label : int array;  (* node -> netting-tree label *)
  h_node_of : int array;  (* label -> node *)
}

(* The netting-descent fallback's hubs, flattened ([Netting_descent.walk]
   reads them). *)
type nd = {
  nd_top : int;
  nd_hub : int array;  (* v * (top + 1) + i -> u(i) *)
  nd_nt : Netting_tree.t;
}

type sfl = {
  s_tables : Tables.t;
  s_label : int array;
  s_node_of : int array;
  s_eps_eff : float;
  s_scales : int;  (* packing scale count *)
  s_radii : float array;  (* u * scales + j -> r_u(2^j) *)
  s_vor_owner : int array;  (* j * n + v *)
  s_vor_parent : int array;  (* j * n + v; -1 at centers *)
  s_scheme : Scale_free_labeled.t;  (* shared router/search directories *)
  s_nd : nd;
  s_fallbacks : int Atomic.t;
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
  adj : Flat.t;
  n : int;
  name : string;
  kind : string;
  budget : int;  (* the scheme's walker hop budget *)
}

let under_label u v =
  match u with U_hier h -> h.h_label.(v) | U_sfl s -> s.s_label.(v)

(* {2 Drivers}

   The labeled and baseline drivers mirror their scheme's [walk] line for
   line: the same decisions in the same order, with every piece of state
   read from the compiled arena (or a shared immutable directory) instead
   of the scheme's working structures. The name-independent engines run
   the schemes' own lookup loop ([Ni_route]) over compiled hub rows and a
   compiled labeled driver. *)

let drive_hier h (mv : Walker.mover) ~dest_label =
  mv.phase Trace.Net_phase @@ fun () ->
  let dest = h.h_node_of.(dest_label) in
  let rec loop () =
    let at = mv.position () in
    if at <> dest then begin
      let hop = Tables.next_hop h.h_tables ~at ~label:dest_label in
      (* All_levels rings always cover, and the minimal covering member is
         never the current node short of arrival (Hier_labeled.walk). *)
      assert (hop >= 0 && hop <> at);
      mv.step hop;
      loop ()
    end
  in
  loop ()

(* Line 7 of Algorithm 5, over the precomputed radius table. *)
let matching_scale s u i =
  let two_i = Float.pow 2.0 (float_of_int i) in
  let rec go j =
    if j = 0 then 0
    else if s.s_radii.((u * s.s_scales) + j) <= two_i then j
    else go (j - 1)
  in
  go (s.s_scales - 1)

let sfl_fallback s (mv : Walker.mover) ~dest_label =
  Atomic.incr s.s_fallbacks;
  let nd = s.s_nd in
  mv.phase Trace.Fallback (fun () ->
      Netting_descent.walk nd.nd_nt
        ~hub:(fun ~src ~level -> nd.nd_hub.((src * (nd.nd_top + 1)) + level))
        mv ~dest_label)

let drive_sfl s (mv : Walker.mover) ~dest_label =
  let n = Array.length s.s_label in
  let dest = s.s_node_of.(dest_label) in
  (* Lines 1-6: greedy ring descent over the compiled ring arena. *)
  let rec ring_phase prev_level =
    let at = mv.position () in
    if at = dest then `Arrived
    else
      let e = Tables.cover s.s_tables ~at ~label:dest_label in
      if e < 0 then `Fallback
      else
        let i = Tables.entry_level s.s_tables e in
        if i = 0 then begin
          (* level-0 range is a singleton: the member is the destination *)
          mv.path (Tables.entry_member s.s_tables e);
          `Arrived
        end
        else
          let two_i = Float.pow 2.0 (float_of_int i) in
          let threshold = (two_i /. 2.0 /. s.s_eps_eff) -. two_i in
          if i <= prev_level && Tables.entry_dist s.s_tables e >= threshold
          then begin
            mv.step (Tables.entry_hop s.s_tables e);
            ring_phase i
          end
          else `Exit i
  in
  match mv.phase Trace.Net_phase (fun () -> ring_phase max_int) with
  | `Arrived -> ()
  | `Fallback -> sfl_fallback s mv ~dest_label
  | `Exit i_t ->
    let u_t = mv.position () in
    let j = matching_scale s u_t i_t in
    let c = s.s_vor_owner.((j * n) + u_t) in
    (* Line 8: climb T_c(j) along the compiled Voronoi parents. *)
    mv.phase Trace.Voronoi_phase (fun () ->
        let rec climb () =
          let at = mv.position () in
          if at <> c then begin
            mv.step s.s_vor_parent.((j * n) + at);
            climb ()
          end
        in
        climb ());
    (* Line 9: search tree II lookup of the local tree label. *)
    let st = Scale_free_labeled.scale_search s.s_scheme ~scale:j ~center:c in
    (match
       mv.phase Trace.Search_tree_phase (fun () ->
           let result = Search_tree.search st ~key:dest_label in
           Search_tree.pay result.legs ~jump:mv.jump ~goto:mv.path;
           result.data)
     with
    | Some local_label ->
      (* Line 10: tree-route from c to the destination. *)
      let router =
        Scale_free_labeled.scale_router s.s_scheme ~scale:j ~center:c
      in
      let path, _cost =
        Interval_routing.route router ~src:c ~dest_label:local_label
      in
      mv.phase Trace.Voronoi_phase (fun () ->
          match path with
          | [] -> ()
          | _ :: rest -> List.iter (fun v -> mv.step v) rest);
      if mv.position () <> dest then sfl_fallback s mv ~dest_label
    | None -> sfl_fallback s mv ~dest_label)

let drive_under u mv ~dest_label =
  match u with
  | U_hier h -> drive_hier h mv ~dest_label
  | U_sfl s -> drive_sfl s mv ~dest_label

let rec lm_find l dst lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = l.m_bunch.(mid) in
    if x = dst then mid
    else if x < dst then lm_find l dst (mid + 1) hi
    else lm_find l dst lo (mid - 1)

let drive_lm l (mv : Walker.mover) ~src ~dst =
  if src <> dst then begin
    (* in-bunch iff dst is in the compiled row (rows hold exactly the
       strict bunch; full rows at landmarks match is_landmark || ...) *)
    let e = lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1) in
    if e < 0 then mv.path l.m_home.(src);
    mv.path dst
  end

let drive t (mv : Walker.mover) ~dst =
  match t.data with
  | Hier h -> drive_hier h mv ~dest_label:h.h_label.(dst)
  | Sfl s -> drive_sfl s mv ~dest_label:s.s_label.(dst)
  | Ni ni ->
    Ni_route.walk ni.i_lookup mv
      ~travel:(fun dest_label -> drive_under ni.i_under mv ~dest_label)
      ~dest_name:ni.i_name_of.(dst)
  | Full _ -> mv.path dst
  | Lm l -> drive_lm l mv ~src:(mv.position ()) ~dst

(* {2 Serving API} *)

let scheme_name t = t.name
let kind t = t.kind
let n t = t.n

let check_endpoint t who x =
  if x < 0 || x >= t.n then
    invalid_arg ("Cr_serve.Engine: " ^ who ^ " out of range")

let walk t w ~dst =
  check_endpoint t "dst" dst;
  drive t (Walker.mover w) ~dst

let route ?(cost = Cost.null) ?(live = Live.null) t ~src ~dst =
  check_endpoint t "src" src;
  check_endpoint t "dst" dst;
  let c =
    { adj = t.adj; cmetric = t.metric; pos = src; total = 0.0; steps = 0;
      budget = t.budget; cur_phase = Trace.Unphased; acct = cost; lv = live }
  in
  if Live.enabled live then Live.tick live;
  drive t (cursor_mover c) ~dst;
  (* served routes run over an intact graph: every completed drive is a
     delivery, and the stretch sample is cost over the metric distance *)
  if Live.enabled live then
    Live.record live ~src ~dst ~status:Live.Delivered
      ~dist:(Metric.dist t.metric src dst)
      ~cost:c.total ~hops:c.steps;
  { Scheme.cost = c.total; hops = c.steps }

let first_move t ~src ~dst =
  match drive t (probe_mover t.metric src) ~dst with
  | () ->
    (* a route between distinct endpoints always moves *)
    assert false
  | exception First_move v -> v

(* Flat engines answer from compiled arrays without allocating; the
   lint's zero-alloc proof walks the whole Tables/lm_find call graph to
   keep it that way. Name-walking engines must replay the route, which
   builds a probe mover per call — the exempted probe path below. *)
let[@cr.zero_alloc] next_hop t ~src ~dst =
  if src = dst then -1
  else
    match t.data with
    | Hier h -> Tables.next_hop h.h_tables ~at:src ~label:h.h_label.(dst)
    | Full f -> f.t_rows.((src * t.n) + dst)
    | Lm l ->
      let e =
        lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1)
      in
      if e >= 0 then l.m_bunch_hop.(e) else l.m_home_hop.(src)
    | Sfl _ | Ni _ ->
      (first_move t ~src ~dst
      [@cr.alloc_ok "name-walking engines replay the route via a probe \
                     mover; only flat tables serve without allocating"])

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
  | U_hier b -> Tables.bits b.h_tables v
  | U_sfl s -> Tables.bits s.s_tables v

let compiled_bits t v =
  match t.data with
  | Hier h -> Tables.bits h.h_tables v + (2 * Bits.id_bits t.n)
  | Sfl s ->
    (* wire rings + per-scale Voronoi owner/parent ids and a stored
       radius + the shared directories (the scheme's non-ring share) *)
    let idb = Bits.id_bits t.n in
    Tables.bits s.s_tables v
    + (s.s_scales * ((2 * idb) + Bits.distance_bits))
    + (Scale_free_labeled.table_bits s.s_scheme v
      - Rings.table_bits (Scale_free_labeled.rings s.s_scheme) v)
  | Ni ni ->
    (* hub row + name entry + the scheme's directory share + the
       underlying engine's compiled tables *)
    ((ni.i_lookup.Ni_route.top_level + 2) * Bits.id_bits t.n)
    + ni.i_dir_bits v + under_table_bits ni.i_under v
  | Full _ -> (t.n - 1) * Bits.id_bits t.n
  | Lm l -> l.m_bits.(v)

(* {2 Compilation} *)

let labels_of nt nn =
  let lbl = Array.init nn (fun v -> Netting_tree.label nt v) in
  let node_of = Array.make nn 0 in
  Array.iteri (fun v l -> node_of.(l) <- v) lbl;
  (lbl, node_of)

let ring_tables ~pool rings nt =
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  Tables.compile ~pool m
    ~level_count:(Hierarchy.top_level h + 1)
    ~levels_of:(fun v -> Scheme_codec.ring_levels_of rings v)

(* src * (top + 1) + level -> [hub_of src level] *)
let hub_rows ~top ~nn hub_of =
  let rows = Array.make (nn * (top + 1)) 0 in
  for v = 0 to nn - 1 do
    for i = 0 to top do
      rows.((v * (top + 1)) + i) <- hub_of v i
    done
  done;
  rows

let compile_nd nt =
  let h = Netting_tree.hierarchy nt in
  let top = Hierarchy.top_level h in
  let nn = Metric.n (Hierarchy.metric h) in
  { nd_top = top; nd_hub = hub_rows ~top ~nn (Zoom.step (Zoom.build h));
    nd_nt = nt }

let finish ctx t =
  Scheme.table_counters ctx ("serve." ^ t.kind) (compiled_bits t) t.n;
  t

let compile_hier ?obs ?(pool = Pool.default ()) scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.hier" @@ fun () ->
  let nt = Hier_labeled.netting_tree scheme in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  let nn = Metric.n m in
  let tables = ring_tables ~pool (Hier_labeled.rings scheme) nt in
  let lbl, node_of = labels_of nt nn in
  finish ctx
    { data = Hier { h_tables = tables; h_label = lbl; h_node_of = node_of };
      metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "hier-labeled (Lemma 3.1)"; kind = "hier";
      budget = Walker.labeled_budget nn }

let compile_scale_free_labeled ?obs ?(pool = Pool.default ()) scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.sfl" @@ fun () ->
  let nt = Scale_free_labeled.netting_tree scheme in
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let nn = Metric.n m in
  let rings = Scale_free_labeled.rings scheme in
  let tables = ring_tables ~pool rings nt in
  let lbl, node_of = labels_of nt nn in
  let scales = Scale_free_labeled.packing_scales scheme in
  let radii = Array.make (nn * scales) 0.0 in
  let rows =
    Pool.parallel_init pool nn (fun u ->
        Array.init scales (fun j -> Metric.radius_of_size m u (1 lsl j)))
  in
  Array.iteri (fun u row -> Array.blit row 0 radii (u * scales) scales) rows;
  let vor_owner = Array.make (scales * nn) 0 in
  let vor_parent = Array.make (scales * nn) (-1) in
  for j = 0 to scales - 1 do
    let vor = Scale_free_labeled.scale_voronoi scheme ~scale:j in
    for v = 0 to nn - 1 do
      vor_owner.((j * nn) + v) <- Voronoi.owner vor v;
      vor_parent.((j * nn) + v) <- Voronoi.parent vor v
    done
  done;
  let s =
    { s_tables = tables; s_label = lbl; s_node_of = node_of;
      s_eps_eff = Rings.effective_epsilon rings; s_scales = scales; s_radii = radii;
      s_vor_owner = vor_owner; s_vor_parent = vor_parent; s_scheme = scheme;
      s_nd = compile_nd nt; s_fallbacks = Atomic.make 0 }
  in
  finish ctx
    { data = Sfl s; metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
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
let compile_ni obs ~kind ~name ~underlying ~naming ~lookup ~dir_bits =
  let ctx = Trace.resolve obs in
  Trace.span ctx ("serve.compile." ^ kind) @@ fun () ->
  let nn = underlying.n in
  if Array.length naming.Workload.name_of <> nn then
    invalid_arg ("Cr_serve.Engine.compile: " ^ kind ^ " node count mismatch");
  let under = as_under underlying in
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
      i_name_of = Array.copy naming.Workload.name_of; i_dir_bits = dir_bits }
  in
  finish ctx
    { data = Ni ni; metric = underlying.metric; adj = underlying.adj; n = nn;
      name; kind; budget = Walker.ni_budget nn }

let compile_simple_ni ?obs ?pool:_ ~underlying scheme =
  let u = Simple_ni.underlying scheme in
  compile_ni obs ~kind:"simple-ni" ~name:"simple name-independent (Thm 1.4)"
    ~underlying ~naming:(Simple_ni.naming scheme)
    ~lookup:(Simple_ni.lookup scheme)
    ~dir_bits:(fun v ->
      Simple_ni.table_bits scheme v - u.Underlying.u_table_bits v)

let compile_scale_free_ni ?obs ?pool:_ ~underlying scheme =
  let u = Scale_free_ni.underlying scheme in
  compile_ni obs ~kind:"sf-ni" ~name:"scale-free name-independent (Thm 1.1)"
    ~underlying ~naming:(Scale_free_ni.naming scheme)
    ~lookup:(Scale_free_ni.lookup scheme)
    ~dir_bits:(fun v ->
      Scale_free_ni.table_bits scheme v - u.Underlying.u_table_bits v)

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
      adj = Flat.of_graph (Metric.graph m); n = nn; name = "full-table";
      kind = "full"; budget = Full_table.budget nn }

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
    { data = Lm l; metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "landmark (TZ stretch-3)"; kind = "landmark";
      budget = Landmark.budget nn }

let under_words = function
  | U_hier h ->
    Tables.words h.h_tables + Array.length h.h_label
    + Array.length h.h_node_of
  | U_sfl s ->
    Tables.words s.s_tables + Array.length s.s_label
    + Array.length s.s_node_of + Array.length s.s_radii
    + Array.length s.s_vor_owner + Array.length s.s_vor_parent
    + Array.length s.s_nd.nd_hub

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
  float_of_int (8 * (data_words t + Flat.words t.adj)) /. float_of_int t.n

let fallbacks t =
  match t.data with
  | Sfl s -> Atomic.get s.s_fallbacks
  | Ni { i_under = U_sfl s; _ } -> Atomic.get s.s_fallbacks
  | _ -> 0
