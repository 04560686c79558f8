module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Ball_packing = Cr_packing.Ball_packing
module Search_tree = Cr_search.Search_tree
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace

type packed_tree = {
  center : int;
  scale : int;  (* the packing level j *)
  ext_size : int;  (* it holds the pairs of the center's min(2^(j+2), n) nearest *)
  ext_last : int;  (* the last of them in the center's order *)
  st : Search_tree.t;
}

type search_site =
  | Local of Search_tree.t  (* type A: own tree on B_u(2^i/eps) *)
  | Link of packed_tree  (* H(u, i) *)

type t = {
  ni : Ni_scheme.t;
  h_links : (int * packed_tree) list array;
      (* u -> (level, linked ball) for every i in S(u), level-increasing *)
  type_a : int;
  type_b : int;
}

(* |B_u(r)|: the length of the prefix of u's neighbour order within r,
   found by bisection, since distances along the order never decrease. *)
let ball_size m u r =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Metric.dist m u (Metric.nth_nearest m u mid) <= r then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Metric.n m)

(* Whether [y] is among [pt]'s extended ball: the center's order is
   sorted by (distance, id), so [y] is in its prefix iff it does not
   come after the prefix's last entry. *)
let in_extended m pt y =
  let dy = Metric.dist m pt.center y
  and dl = Metric.dist m pt.center pt.ext_last in
  dy < dl || (Float.equal dy dl && y <= pt.ext_last)

let build ?obs ?(pool = Cr_par.Pool.default ()) nt ~epsilon ~naming
    ~underlying =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Scale_free_ni.build: epsilon must be in (0, 1)";
  let ctx = Trace.resolve obs in
  Trace.span ctx "scale_free_ni.build" @@ fun () ->
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let n = Metric.n m in
  let top = Hierarchy.top_level h in
  let eps_eff = Ni_scheme.effective_epsilon epsilon in
  let trees_of = Array.make n [] in
  let register st =
    List.iter (fun v -> trees_of.(v) <- st :: trees_of.(v))
      (Search_tree.members st)
  in
  let directory_pairs nodes =
    List.map
      (fun v ->
        (naming.Workload.name_of.(v), underlying.Scheme.label v))
      nodes
  in
  (* Type-B trees: one per packed ball at every scale j. Balls are
     independent: directory assembly and tree builds run on the pool;
     trees_of registration stays sequential, in ball order. *)
  let packings = Ball_packing.build_all m in
  let packed_levels =
    Cr_par.Pool.stage ctx pool "scale_free_ni.type_b" @@ fun () ->
    Array.map
      (fun packing ->
        let j = Ball_packing.size_exponent packing in
        let built =
          Cr_par.Pool.parallel_map_list pool
            (fun (ball : Ball_packing.ball) ->
              let ext_size = min (1 lsl (j + 2)) n in
              let ext_nodes = Metric.nearest_k m ball.center ext_size in
              let st =
                Search_tree.build m ~epsilon:eps_eff ~center:ball.center
                  ~radius:(Float.max ball.radius 1.0)
                  ~members:(Array.to_list ball.members)
                  ~level_cap:None ~pairs:(directory_pairs ext_nodes)
                  ~universe:n
              in
              ( ball,
                { center = ball.center; scale = j; ext_size;
                  ext_last = Metric.nth_nearest m ball.center (ext_size - 1);
                  st } ))
            (Ball_packing.balls packing)
        in
        List.iter (fun (_, pt) -> register pt.st) built;
        built)
      packings
  in
  let type_b = Array.fold_left (fun acc l -> acc + List.length l) 0 packed_levels in
  (* Type-A trees and H links, per (level, net point). Net points are
     independent within a level (they only read the metric and the packed
     levels built above): the covering search and any Local tree build run
     on the pool; sites/h_links/trees_of updates stay sequential, in net
     order. *)
  let sites = Array.make ((top + 1) * n) None in  (* level * n + net point *)
  let h_links = Array.make n [] in
  let type_a = ref 0 in
  (Cr_par.Pool.stage ctx pool "scale_free_ni.type_a" @@ fun () ->
   for i = 0 to top do
     let two_i = Float.pow 2.0 (float_of_int i) in
     let radius = two_i /. eps_eff in
     let outer = two_i *. ((1.0 /. eps_eff) +. 1.0) in
     let built =
       Cr_par.Pool.parallel_map_list pool
         (fun u ->
           let size = ball_size m u radius in
           (* Exclusion test: find a packed ball B (minimal j, then minimal
              d(u, c), the earlier ball on ties) inside B_u(outer) whose
              extended ball contains every member of B_u(radius), the
              first [size] entries of u's order. *)
           let covers ((ball : Ball_packing.ball), pt) =
             Metric.dist m u ball.center <= outer
             && pt.ext_size >= size
             && Array.for_all
                  (fun x -> Metric.dist m u x <= outer)
                  ball.members
             &&
             let rec all_in k =
               k = size
               || (in_extended m pt (Metric.nth_nearest m u k)
                  && all_in (k + 1))
             in
             all_in 0
           in
           let closer best ((ball : Ball_packing.ball), _ as cand) =
             match best with
             | Some ((b' : Ball_packing.ball), _)
               when Metric.dist m u b'.center <= Metric.dist m u ball.center
               ->
               best
             | _ -> if covers cand then Some cand else best
           in
           let covering = ref None in
           let level_idx = ref 0 in
           while !covering = None && !level_idx < Array.length packed_levels do
             covering :=
               Option.map snd
                 (List.fold_left closer None packed_levels.(!level_idx));
             incr level_idx
           done;
           match !covering with
           | Some pt -> (u, Link pt)
           | None ->
             let members = Metric.nearest_k m u size in
             let st =
               Search_tree.build m ~epsilon:eps_eff ~center:u ~radius
                 ~members ~level_cap:None ~pairs:(directory_pairs members)
                 ~universe:n
             in
             (u, Local st))
         (Hierarchy.net h i)
     in
     List.iter
       (fun (u, site) ->
         sites.((i * n) + u) <-
           Some
             (match site with
             | Link pt ->
               h_links.(u) <- h_links.(u) @ [ (i, pt) ];
               Ni_route.Link (pt.center, pt.st)
             | Local st ->
               register st;
               incr type_a;
               Ni_route.Local st))
       built
   done);
  let lookup =
    { Ni_route.first_level = 0; top_level = top;
      tree = nt;
      site = Ni_route.site_table ~scheme:"Scale_free_ni" ~n sites;
      label = underlying.Scheme.label }
  in
  (* an H link stores the linked center's id and its level *)
  let link_bits v =
    List.length h_links.(v) * (Bits.id_bits n + Bits.ceil_log2 (top + 2))
  in
  let ni =
    { Ni_scheme.name = "scale-free name-independent (Thm 1.1)";
      degraded_name = "scale-free name-independent (Thm 1.1, degraded)";
      metric = m; naming; underlying; lookup; trees_of; link_bits }
  in
  if Trace.enabled ctx then begin
    Trace.counter ctx "scale_free_ni.type_a_trees" (float_of_int !type_a);
    Trace.counter ctx "scale_free_ni.type_b_trees" (float_of_int type_b);
    Scheme.table_counters ctx "scale_free_ni" (Ni_scheme.table_bits ni) n
  end;
  { ni; h_links; type_a = !type_a; type_b }

let scheme t = t.ni
let to_scheme t = Ni_scheme.to_scheme t.ni
let type_a_count t = t.type_a
let type_b_count t = t.type_b
let h_links_of t u = List.map fst t.h_links.(u)
let trees_containing t v = List.length t.ni.Ni_scheme.trees_of.(v)

let h_link_balls t u =
  List.map (fun (i, pt) -> (i, pt.scale, pt.center)) t.h_links.(u)
