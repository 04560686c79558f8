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
module Full_table = Cr_baselines.Full_table
module Landmark = Cr_baselines.Landmark

(* The view the harness routes: a served route is its walk. *)
type view =
  | Labeled of Scheme.labeled
  | Name_independent of Ni_scheme.t

(* The landmark comparator's rows. *)
type bunches = {
  home_hop : int array;  (* first hop toward home; -1 at landmarks *)
  bunch_off : int array;  (* n + 1 *)
  bunch : int array;  (* bunch members, sorted; full rows at landmarks *)
  bunch_hop : int array;  (* aligned first hops *)
}

(* What [next_hop] answers from without walking. *)
type table =
  | Rings_at_label of Rings.t * Netting_tree.t
      (* hier: the scheme's ring store, read at the destination's label *)
  | Full_rows of int array  (* src * n + dst -> first hop; -1 diag *)
  | Bunch_rows of bunches
  | First_move  (* sfl and the name-independent pair *)

type t = {
  view : view;
  table : table;
  metric : Metric.t;
  n : int;
  kind : string;
  rings : Rings.t option;
      (* a labeled scheme's ring store, whose wire size a name-independent
         engine over this one counts *)
  bits : int -> int;  (* [compiled_bits] *)
  words : int;  (* the machine words [bytes_per_node] charges *)
}

(* {2 Serving API} *)

let scheme_name t =
  match t.view with Labeled s -> s.Scheme.l_name | Name_independent s -> s.name

let n t = t.n

let check_endpoint t who x =
  if x < 0 || x >= t.n then
    invalid_arg ("Cr_serve.Engine: " ^ who ^ " out of range")

let serve t w ~dst =
  match t.view with
  | Labeled s -> s.Scheme.walk w ~dest_label:(s.Scheme.label dst)
  | Name_independent s ->
    Ni_scheme.walk s w ~dest_name:s.naming.Workload.name_of.(dst)

let walk t w ~dst =
  check_endpoint t "dst" dst;
  serve t w ~dst

let budget t =
  match t.view with
  | Labeled _ -> Walker.labeled_budget t.n
  | Name_independent _ -> Walker.ni_budget t.n

(* Served routes run untraced: [batch] serves on pool domains, and a
   trace sink belongs to a single domain. *)
let route ?(cost = Cost.null) ?(live = Live.null) t ~src ~dst =
  check_endpoint t "src" src;
  check_endpoint t "dst" dst;
  let w =
    Walker.create ~obs:Trace.null ~cost ~live t.metric ~start:src
      ~max_hops:(budget t)
  in
  if Live.enabled live then Live.tick live;
  serve t w ~dst;
  let c = Walker.cost w and hops = Walker.hops w in
  (* served routes run over an intact graph: every completed walk is a
     delivery, and the stretch sample is cost over the metric distance *)
  if Live.enabled live then
    Live.record live ~src ~dst ~status:Live.Delivered
      ~dist:(Metric.dist t.metric src dst)
      ~cost:c ~hops;
  { Scheme.cost = c; hops }

(* The route's first move: its walk on a walker whose budget refuses the
   second move. *)
let first_move t ~src ~dst =
  let w = Walker.create ~obs:Trace.null t.metric ~start:src ~max_hops:1 in
  (try serve t w ~dst with Walker.Hop_budget_exhausted -> ());
  let v = Walker.position w in
  if v = src then
    (* a route between distinct endpoints always moves *)
    invalid_arg
      (Printf.sprintf
         "Cr_serve.Engine.next_hop: %s route from node %d to node %d did \
          not move"
         t.kind src dst);
  v

let rec bunch_find b dst lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = b.bunch.(mid) in
    if x = dst then mid
    else if x < dst then bunch_find b dst (mid + 1) hi
    else bunch_find b dst lo (mid - 1)

(* Flat engines answer from their tables without allocating; the lint's
   zero-alloc proof walks the whole Rings/bunch_find call graph to keep it
   that way. The other engines replay the route's first move on a walker
   — the exempted path below. *)
let[@cr.zero_alloc] next_hop t ~src ~dst =
  if src = dst then -1
  else
    match t.table with
    | Rings_at_label (rings, nt) ->
      Rings.next_hop rings ~at:src ~label:(Netting_tree.label nt dst)
    | Full_rows rows -> rows.((src * t.n) + dst)
    | Bunch_rows b ->
      let e = bunch_find b dst b.bunch_off.(src) (b.bunch_off.(src + 1) - 1) in
      if e >= 0 then b.bunch_hop.(e) else b.home_hop.(src)
    | First_move ->
      (first_move t ~src ~dst
      [@cr.alloc_ok "walking engines replay the route's first move on a \
                     walker; only flat tables serve without allocating"])

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

let compiled_bits t v = t.bits v

let bytes_per_node t = float_of_int (8 * t.words) /. float_of_int t.n

(* {2 Compilation} *)

(* The adjacency's footprint, charged to [bytes_per_node] at its packed
   size: n + 1 row offsets, then a neighbour id and a weight per directed
   edge. Routes read [Graph]'s own rows; this is the size they would take
   as one flat arena. *)
let packed_adjacency_words m =
  let g = Metric.graph m in
  Graph.n g + 1 + (4 * Graph.num_edges g)

(* The netting tree's tables, in words: its label and inverse-label arrays,
   and its ancestor table of top + 1 entries per node. *)
let label_words nn = 2 * nn

let ancestor_words nn ~top = nn * (top + 1)

let finish ctx t =
  Scheme.table_counters ctx ("serve." ^ t.kind) t.bits t.n;
  t

let metric_of nt = Hierarchy.metric (Netting_tree.hierarchy nt)

let compile_hier ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.hier" @@ fun () ->
  let nt = Hier_labeled.netting_tree scheme in
  let rings = Hier_labeled.rings scheme in
  let m = metric_of nt in
  let nn = Metric.n m in
  finish ctx
    { view = Labeled (Hier_labeled.to_underlying scheme);
      table = Rings_at_label (rings, nt); metric = m; n = nn; kind = "hier";
      rings = Some rings;
      bits = (fun v -> Rings.wire_bits rings v + (2 * Bits.id_bits nn));
      words =
        Rings.words rings + label_words nn + packed_adjacency_words m }

let compile_scale_free_labeled ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.sfl" @@ fun () ->
  let nt = Scale_free_labeled.netting_tree scheme in
  let m = metric_of nt in
  let nn = Metric.n m in
  let r = Scale_free_labeled.router scheme in
  let top = Hierarchy.top_level (Netting_tree.hierarchy nt) in
  let idb = Bits.id_bits nn in
  finish ctx
    { view = Labeled (Scale_free_labeled.to_underlying scheme);
      table = First_move; metric = m; n = nn; kind = "sfl";
      rings = Some r.ring;
      (* wire rings + per-scale Voronoi owner/parent ids and a stored
         radius + the shared directories (the scheme's non-ring share) *)
      bits =
        (fun v ->
          Rings.wire_bits r.ring v
          + (r.scales * ((2 * idb) + Bits.distance_bits))
          + (Scale_free_labeled.table_bits scheme v
            - Rings.table_bits r.ring v));
      words =
        Rings.words r.ring + label_words nn + Array.length r.radii
        + Array.length r.owner + Array.length r.parent
        + ancestor_words nn ~top + packed_adjacency_words m }

(* Both name-independent engines serve the built scheme's walk, which
   travels on the same labeled scheme [underlying] was compiled from. *)
let compile_ni obs ~kind ~underlying (s : Ni_scheme.t) =
  let ctx = Trace.resolve obs in
  Trace.span ctx ("serve.compile." ^ kind) @@ fun () ->
  let nn = underlying.n in
  if Array.length s.naming.Workload.name_of <> nn then
    invalid_arg ("Cr_serve.Engine.compile: " ^ kind ^ " node count mismatch");
  let rings =
    match underlying.rings with
    | Some rings -> rings
    | None ->
      invalid_arg
        "Cr_serve.Engine: underlying engine must serve a labeled scheme"
  in
  let top = s.lookup.Ni_route.top_level in
  finish ctx
    { view = Name_independent s; table = First_move; metric = underlying.metric;
      n = nn; kind; rings = None;
      (* hub row + name entry + the scheme's directory share + the
         underlying engine's ring tables *)
      bits =
        (fun v ->
          ((top + 2) * Bits.id_bits nn)
          + Ni_scheme.directory_bits s v + Rings.wire_bits rings v);
      (* the underlying engine's words, the ancestor table the hubs are
         read from, and the naming *)
      words = underlying.words + ancestor_words nn ~top + nn }

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
    { view = Labeled (Full_table.labeled m); table = Full_rows rows;
      metric = m; n = nn; kind = "full"; rings = None;
      bits = (fun _ -> (nn - 1) * Bits.id_bits nn);
      words = Array.length rows + packed_adjacency_words m }

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
  let home_hop_arr = Array.make nn (-1) in
  let bits = Array.make nn 0 in
  Array.iteri
    (fun u (mem, hop, home_hop) ->
      Array.blit mem 0 bunch off.(u) (Array.length mem);
      Array.blit hop 0 bunch_hop off.(u) (Array.length hop);
      home_hop_arr.(u) <- home_hop;
      (* member id + next hop per row entry, plus home id and its hop *)
      bits.(u) <- ((2 * Array.length mem) + 2) * idb)
    rows;
  let b = { home_hop = home_hop_arr; bunch_off = off; bunch; bunch_hop } in
  finish ctx
    { view = Labeled (Landmark.labeled_of lm); table = Bunch_rows b;
      metric = m; n = nn; kind = "landmark"; rings = None;
      bits = (fun v -> bits.(v));
      (* the scheme's home and landmark-flag rows, which its walk reads,
         the bunch rows and the per-node bits *)
      words =
        nn + nn + Array.length b.home_hop + Array.length b.bunch_off
        + Array.length b.bunch + Array.length b.bunch_hop
        + Array.length bits + packed_adjacency_words m }
