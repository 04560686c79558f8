module Metric = Cr_metric.Metric
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
module Simple_ni = Cr_core.Simple_ni
module Scale_free_ni = Cr_core.Scale_free_ni
module Underlying = Cr_core.Underlying
module Ni_route = Cr_core.Ni_route
module Landmark = Cr_baselines.Landmark
module Full_table = Cr_baselines.Full_table

(* The serving cursor: walker cost/hop accounting without the trace,
   trail, or failure machinery. A hop allocates nothing: the running cost
   lives in an all-float record (stored unboxed) and the edge weight is
   read from the adjacency's weight array here, not returned boxed from
   [Flat]. *)
type total = { mutable sum : float }

type cursor = {
  adj : Flat.t;
  wgt : float array;  (* Flat.weights adj *)
  cmetric : Metric.t;
  mutable pos : int;
  total : total;
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
  let e = Flat.edge_exn c.adj c.pos v in
  cursor_spend c;
  let src = c.pos in
  c.pos <- v;
  c.total.sum <- c.total.sum +. c.wgt.(e);
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
  c.total.sum <- c.total.sum +. cost;
  if Cost.enabled c.acct then begin
    let phase =
      if c.cur_phase = Trace.Unphased then Trace.Teleport else c.cur_phase
    in
    Cost.record c.acct ~phase:(Trace.phase_label phase) ~src:(-1) ~dst:v
      ~round:(c.steps - 1) ~bits:0
  end

(* Walker.with_phase's outer-wins rule, restoring the phase on an
   exception too (the hop budget running out mid-phase). *)
let cursor_phase c p f =
  match c.cur_phase with
  | Trace.Unphased -> (
    c.cur_phase <- p;
    match f () with
    | x ->
      c.cur_phase <- Trace.Unphased;
      x
    | exception e ->
      c.cur_phase <- Trace.Unphased;
      raise e)
  | _ -> f ()

(* Drivers make forwarding decisions from compiled data and move the
   packet through a [Walker.mover] — bound to a real walker for the
   differential trace harness ([walk]), to the lean cursor for served
   routes, or to the first-move probe. The cursor applies the exact
   [Walker] semantics (same float operations in the same order), so the
   bindings produce identical costs and hop counts. *)
let cursor_mover c =
  { Walker.position = (fun () -> c.pos);
    cost = (fun () -> c.total.sum);
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
  h_next_hop : at:int -> label:int -> int;  (* Tables.next_hop over h_tables *)
}

type sfl = {
  s_tables : Tables.t;
  s_label : int array;
  s_node_of : int array;
  s_router : Scale_free_labeled.router;
      (* the scheme's arrays and directories over the arena's rings *)
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
  adj : Flat.t;
  n : int;
  name : string;
  kind : string;
  budget : int;  (* the scheme's walker hop budget *)
}

let under_label u v =
  match u with U_hier h -> h.h_label.(v) | U_sfl s -> s.s_label.(v)

(* {2 Drivers}

   The labeled engines run their scheme's own forwarding function
   ([Hier_labeled.route_over], [Scale_free_labeled.route_over]) over the
   compiled ring arena; the name-independent engines run the schemes' own
   lookup loop ([Ni_route]) over compiled hub rows and a compiled labeled
   engine. The baseline drivers replay their scheme's routes from
   compiled rows. *)

let drive_hier h mv ~dest_label =
  Hier_labeled.route_over ~next_hop:h.h_next_hop ~dest:h.h_node_of.(dest_label)
    mv ~dest_label

let drive_sfl s mv ~dest_label =
  Scale_free_labeled.route_over s.s_router mv ~dest:s.s_node_of.(dest_label)
    ~dest_label

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
    { adj = t.adj; wgt = Flat.weights t.adj; cmetric = t.metric; pos = src;
      total = { sum = 0.0 }; steps = 0; budget = t.budget;
      cur_phase = Trace.Unphased; acct = cost; lv = live }
  in
  if Live.enabled live then Live.tick live;
  drive t (cursor_mover c) ~dst;
  (* served routes run over an intact graph: every completed drive is a
     delivery, and the stretch sample is cost over the metric distance *)
  if Live.enabled live then
    Live.record live ~src ~dst ~status:Live.Delivered
      ~dist:(Metric.dist t.metric src dst)
      ~cost:c.total.sum ~hops:c.steps;
  { Scheme.cost = c.total.sum; hops = c.steps }

let first_move t ~src ~dst =
  match drive t (probe_mover t.metric src) ~dst with
  | () ->
    (* a route between distinct endpoints always moves *)
    invalid_arg
      (Printf.sprintf
         "Cr_serve.Engine.next_hop: %s route from node %d to node %d did \
          not move"
         t.kind src dst)
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
    + (s.s_router.scales * ((2 * idb) + Bits.distance_bits))
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
    ~levels_of:(Tables.ring_levels rings)

(* src * (top + 1) + level -> [hub_of src level] *)
let hub_rows ~top ~nn hub_of =
  let rows = Array.make (nn * (top + 1)) 0 in
  for v = 0 to nn - 1 do
    for i = 0 to top do
      rows.((v * (top + 1)) + i) <- hub_of v i
    done
  done;
  rows

(* Algorithm 5's ring view over the compiled arena: an entry is an arena
   index, and Line 4 compares the entry's stored distance with the
   scheme's own threshold array. *)
let arena_view tables ~far_bound =
  { Scale_free_labeled.cover =
      (fun ~at ~label -> Tables.cover tables ~at ~label);
    level = (fun e -> Tables.entry_level tables e);
    member = (fun e -> Tables.entry_member tables e);
    hop = (fun ~at:_ e -> Tables.entry_hop tables e);
    far =
      (fun ~at:_ e ->
        Tables.entry_dist tables e >= far_bound.(Tables.entry_level tables e))
  }

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
    { data =
        Hier
          { h_tables = tables; h_label = lbl; h_node_of = node_of;
            h_next_hop = (fun ~at ~label -> Tables.next_hop tables ~at ~label)
          };
      metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "hier-labeled (Lemma 3.1)"; kind = "hier";
      budget = Walker.labeled_budget nn }

let compile_scale_free_labeled ?obs ?(pool = Pool.default ()) scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.sfl" @@ fun () ->
  let nt = Scale_free_labeled.netting_tree scheme in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  let nn = Metric.n m in
  let tables = ring_tables ~pool (Scale_free_labeled.rings scheme) nt in
  let lbl, node_of = labels_of nt nn in
  let r = Scale_free_labeled.router scheme in
  let s =
    { s_tables = tables; s_label = lbl; s_node_of = node_of;
      s_router =
        { r with
          ring = arena_view tables ~far_bound:r.far_bound;
          fallbacks = Atomic.make 0 };
      s_scheme = scheme }
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
  float_of_int (8 * (data_words t + Flat.words t.adj)) /. float_of_int t.n

let fallbacks t =
  match t.data with
  | Sfl s -> Atomic.get s.s_router.fallbacks
  | Ni { i_under = U_sfl s; _ } -> Atomic.get s.s_router.fallbacks
  | _ -> 0
