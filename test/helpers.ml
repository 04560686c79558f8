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
