(* Shared fixtures and check utilities for the test suites. *)

module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric

(* [graph_of_edges n edges] builds a graph on [n] nodes from an edge list. *)
let graph_of_edges n edges =
  let g = Graph.create n in
  List.iter (fun (u, v, w) -> Graph.add_edge g u v w) edges;
  g

(* Every ordered pair (u, v), u <> v, of an [n]-node instance. *)
let all_pairs n =
  List.concat_map
    (fun u -> List.filter_map (fun v -> if u = v then None else Some (u, v))
        (List.init n Fun.id))
    (List.init n Fun.id)

(* Every level's netting-tree parents, run distributedly: a fresh
   Dist_hierarchy election, then Dist_netting on each level over the same
   transport. The conformance tests compare its parents against
   Netting_tree.parent; it returns them with the summed statistics. *)
let dist_netting_parents ?via m =
  let module Network = Cr_proto.Network in
  let module Dist_hierarchy = Cr_proto.Dist_hierarchy in
  let hierarchy = Dist_hierarchy.build ?via m in
  let nets = hierarchy.Dist_hierarchy.nets in
  let top = Array.length nets - 1 in
  let messages = ref 0 and makespan = ref 0.0 in
  let parents =
    Array.init (top + 1) (fun i ->
        if i >= top then Array.make (Metric.n m) (-1)
        else begin
          let r =
            Cr_proto.Dist_netting.parents_for_level ?via m
              ~label:(Printf.sprintf "dist_netting.l%d" i)
              ~members:nets.(i) ~upper:nets.(i + 1)
              ~radius:(Float.pow 2.0 (float_of_int (i + 1)))
          in
          messages := !messages + r.Cr_proto.Dist_netting.stats.Network.messages;
          makespan :=
            Float.max !makespan r.Cr_proto.Dist_netting.stats.Network.makespan;
          r.Cr_proto.Dist_netting.parent
        end)
  in
  (parents, { Network.messages = !messages; makespan = !makespan })

(* Every node named by its own id. *)
let identity_naming n =
  { Cr_sim.Workload.name_of = Array.init n Fun.id; node_of = Array.init n Fun.id }

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small fixed graphs used across suites. Metrics are memoized because APSP
   on the larger fixtures is the dominant cost of the test run. *)

let memo f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
      let v = f () in
      cache := Some v;
      v

let triangle =
  memo (fun () ->
      Metric.of_graph (graph_of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.5) ]))

let grid6 = memo (fun () -> Metric.of_graph (Cr_graphgen.Grid.square ~side:6))
let grid8 = memo (fun () -> Metric.of_graph (Cr_graphgen.Grid.square ~side:8))
let ring16 = memo (fun () -> Metric.of_graph (Cr_graphgen.Path_like.ring ~n:16))

let holey =
  memo (fun () ->
      Metric.of_graph
        (Cr_graphgen.Grid.with_holes ~side:8 ~hole_fraction:0.2 ~seed:7))

let geo48 =
  memo (fun () -> Metric.of_graph (Cr_graphgen.Geometric.knn ~n:48 ~k:3 ~seed:11))

let expo12 =
  memo (fun () ->
      Metric.of_graph (Cr_graphgen.Path_like.exponential_chain ~n:12 ~base:2.0))

(* Seeded geo, grid and holey graphs for the metric and packing
   properties. Grids put many nodes at equal distance, so the least-id
   tie-break decides most of their neighbour orders; geo graphs carry
   non-unit weights. *)
let family_gen =
  QCheck2.Gen.(
    let* kind = int_range 0 2 in
    let* seed = int_range 0 10_000 in
    return (kind, seed))

let family_graph (kind, seed) =
  match kind with
  | 0 -> Cr_graphgen.Geometric.knn ~n:(12 + (seed mod 29)) ~k:3 ~seed
  | 1 -> Cr_graphgen.Grid.square ~side:(3 + (seed mod 5))
  | _ ->
    Cr_graphgen.Grid.with_holes ~side:(4 + (seed mod 4)) ~hole_fraction:0.2
      ~seed

(* [family_gen]'s graphs plus seeded rings and exponential chains, for the
   ring-store properties. *)
let cover_family_gen =
  QCheck2.Gen.(
    let* kind = int_range 0 4 in
    let* seed = int_range 0 10_000 in
    return (kind, seed))

let cover_family_graph (kind, seed) =
  match kind with
  | 3 -> Cr_graphgen.Path_like.ring ~n:(6 + (seed mod 27))
  | 4 -> Cr_graphgen.Path_like.exponential_chain ~n:(4 + (seed mod 11)) ~base:2.0
  | _ -> family_graph (kind, seed)

(* Greedy r-net (Definition 2.1) over the matrix: the points of [seed],
   then every candidate, scanned in increasing id order, at distance
   >= r from every point so far. Sorted by id. The reference the
   ball-limited net builders (Net_levels, Net_election, the search
   trees' levels) are checked against; [seed] is assumed pairwise >= r
   apart, as a coarser level's net is. *)
let rnet_greedy m ~r ~candidates ~seed =
  let net = ref (List.sort_uniq Int.compare seed) in
  let far_from_net v = List.for_all (fun y -> Metric.dist m v y >= r) !net in
  List.iter
    (fun v -> if far_from_net v then net := v :: !net)
    (List.sort Int.compare candidates);
  List.sort Int.compare !net

(* The Definition 3.2 / 4.2 levels of Search_tree.build, built over
   lists: per level, [rnet_greedy] over the unplaced members, each new
   point attached to [Metric.nearest_in] over the previous level; then
   the final sweep onto the last level, or, when the level cap truncated
   the hierarchy, the Definition 4.2 chains (leftovers in id order, each
   behind the last node chained to its nearest site, at weight
   2 eps r / n). One (member, parent, edge weight, chained) per member
   but the center, parents before their children. *)
let search_tree_levels m ~epsilon ~center ~radius ~members ~level_cap =
  let net_levels =
    let er = epsilon *. radius in
    if er < 2.0 then 0 else int_of_float (Float.log2 er)
  in
  let capped =
    match level_cap with None -> net_levels | Some cap -> min cap net_levels
  in
  let edges = ref [] in
  let attach v p w chained = edges := (v, p, w, chained) :: !edges in
  let net_edge prev v =
    let p = Metric.nearest_in m v prev in
    attach v p (Metric.dist m v p) false
  in
  let remaining =
    ref (List.filter (fun v -> v <> center) (List.sort_uniq Int.compare members))
  in
  let prev = ref [ center ] in
  let level = ref 1 in
  while !level <= capped && !remaining <> [] do
    let r = Float.pow 2.0 (float_of_int (net_levels - !level)) in
    let net = rnet_greedy m ~r ~candidates:!remaining ~seed:[] in
    List.iter (net_edge !prev) net;
    remaining := List.filter (fun v -> not (List.mem v net)) !remaining;
    prev := net;
    incr level
  done;
  let truncated =
    match level_cap with Some cap -> net_levels > cap | None -> false
  in
  if truncated then begin
    let w = 2.0 *. epsilon *. radius /. float_of_int (Metric.n m) in
    let tails = ref [] in
    List.iter
      (fun v ->
        let site = Metric.nearest_in m v !prev in
        let tail = Option.value (List.assoc_opt site !tails) ~default:site in
        attach v tail w true;
        tails := (site, v) :: List.remove_assoc site !tails)
      !remaining
  end
  else List.iter (net_edge !prev) !remaining;
  List.rev !edges

(* [u]'s nodes sorted by (distance, id), by a plain sort of all of them. *)
let brute_order m u =
  List.sort
    (fun a b ->
      let c = Float.compare (Metric.dist m u a) (Metric.dist m u b) in
      if c <> 0 then c else Int.compare a b)
    (List.init (Metric.n m) Fun.id)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)
