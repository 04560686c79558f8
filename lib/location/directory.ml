module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Underlying = Cr_core.Underlying

type t = {
  nt : Netting_tree.t;
  metric : Metric.t;
  zoom : Zoom.t;
  eps_eff : float;
  underlying : Underlying.t;
  key_universe : int;
  trees : (int * int, Search_tree.t) Hashtbl.t;  (* (level, net point) *)
  covering : (int, (int * int) list) Hashtbl.t;
      (* node -> (level, net point) of every tree whose ball contains it *)
  holders : (int, int) Hashtbl.t;  (* key -> current holder *)
  replica_holders : (int, int list) Hashtbl.t;  (* key -> holders, sorted *)
  replica_owner : (int * (int * int), int) Hashtbl.t;
      (* (key, tree site) -> the replica whose label that tree stores *)
  top : int;
}

let create nt ~epsilon ~underlying ~key_universe =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Directory.create: epsilon must be in (0, 1)";
  if key_universe < 1 then
    invalid_arg "Directory.create: key_universe must be positive";
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let top = Hierarchy.top_level h in
  let eps_eff = Float.min epsilon 0.4 in
  let trees = Hashtbl.create 64 in
  let covering = Hashtbl.create (Metric.n m) in
  for i = 0 to top do
    let radius = Float.pow 2.0 (float_of_int i) /. eps_eff in
    List.iter
      (fun u ->
        let members = Metric.ball m ~center:u ~radius in
        let st =
          Search_tree.build m ~epsilon:eps_eff ~center:u ~radius ~members
            ~level_cap:None ~pairs:[] ~universe:key_universe
        in
        Hashtbl.replace trees (i, u) st;
        List.iter
          (fun v ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt covering v)
            in
            Hashtbl.replace covering v ((i, u) :: existing))
          members)
      (Hierarchy.net h i)
  done;
  { nt; metric = m; zoom = Zoom.build h; eps_eff; underlying; key_universe;
    trees; covering; holders = Hashtbl.create 64;
    replica_holders = Hashtbl.create 16; replica_owner = Hashtbl.create 64;
    top }

let walk_to t w node =
  t.underlying.Underlying.u_walk w
    ~dest_label:(t.underlying.Underlying.u_label node)

let budget m = 200_000 + (500 * Metric.n m)

let check_key t key =
  if key < 0 || key >= t.key_universe then
    invalid_arg "Directory: key out of range"

(* Visit every directory tree covering [holder], applying [action] to each;
   the courier starts at the holder, walks tree to tree, and returns. *)
let tour t ~holder ~action =
  let w = Walker.create t.metric ~start:holder ~max_hops:(budget t.metric) in
  List.iter
    (fun ((_, root) as site) ->
      let st = Hashtbl.find t.trees site in
      walk_to t w root;
      Search_tree.pay (action st site)
        ~jump:(fun v c -> Walker.teleport w v ~cost:c)
        ~goto:(walk_to t w))
    (List.sort compare (Hashtbl.find t.covering holder));
  walk_to t w holder;
  Walker.cost w

let publish t ~key ~holder =
  check_key t key;
  if Hashtbl.mem t.holders key || Hashtbl.mem t.replica_holders key then
    invalid_arg "Directory.publish: key already published";
  let label = t.underlying.Underlying.u_label holder in
  let cost =
    tour t ~holder ~action:(fun st _site ->
        Search_tree.insert st ~key ~data:label)
  in
  Hashtbl.replace t.holders key holder;
  cost

let unpublish t ~key ~holder =
  check_key t key;
  (match Hashtbl.find_opt t.holders key with
  | Some h when h = holder -> ()
  | _ -> invalid_arg "Directory.unpublish: not published at this holder");
  let cost =
    tour t ~holder ~action:(fun st _site ->
        let removed, legs = Search_tree.remove st ~key in
        assert removed;
        legs)
  in
  Hashtbl.remove t.holders key;
  cost

let move t ~key ~from_holder ~to_holder =
  let c1 = unpublish t ~key ~holder:from_holder in
  let c2 = publish t ~key ~holder:to_holder in
  c1 +. c2

let lookup t w ~key =
  check_key t key;
  let src = Walker.position w in
  let rec attempt i =
    if i > t.top then None
    else begin
      let hub = Zoom.step t.zoom src i in
      walk_to t w hub;
      let st = Hashtbl.find t.trees (i, hub) in
      let result = Search_tree.search st ~key in
      Search_tree.pay result.Search_tree.legs
        ~jump:(fun v c -> Walker.teleport w v ~cost:c)
        ~goto:(walk_to t w);
      match result.Search_tree.data with
      | Some label ->
        t.underlying.Underlying.u_walk w ~dest_label:label;
        Some (Walker.position w)
      | None -> attempt (i + 1)
    end
  in
  attempt 0

let holder t ~key = Hashtbl.find_opt t.holders key

(* --- replicated objects --- *)

(* (distance to the tree's center, id): which replica a tree should hold *)
let replica_rank t root v = (Metric.dist t.metric v root, v)

let publish_replica t ~key ~holder =
  check_key t key;
  if Hashtbl.mem t.holders key then
    invalid_arg "Directory.publish_replica: key is singly published";
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt t.replica_holders key)
  in
  if List.mem holder existing then
    invalid_arg "Directory.publish_replica: already a replica holder";
  let label = t.underlying.Underlying.u_label holder in
  let cost =
    tour t ~holder ~action:(fun st ((_, root) as site) ->
        match Hashtbl.find_opt t.replica_owner (key, site) with
        | None ->
          Hashtbl.replace t.replica_owner (key, site) holder;
          Search_tree.insert st ~key ~data:label
        | Some current ->
          if replica_rank t root holder < replica_rank t root current then begin
            Hashtbl.replace t.replica_owner (key, site) holder;
            let _, legs1 = Search_tree.remove st ~key in
            let legs2 = Search_tree.insert st ~key ~data:label in
            legs1 @ legs2
          end
          else [])
  in
  Hashtbl.replace t.replica_holders key (List.sort compare (holder :: existing));
  cost

let unpublish_replica t ~key ~holder =
  check_key t key;
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt t.replica_holders key)
  in
  if not (List.mem holder existing) then
    invalid_arg "Directory.unpublish_replica: not a replica holder";
  let survivors = List.filter (fun v -> v <> holder) existing in
  let cost =
    tour t ~holder ~action:(fun st ((_, root) as site) ->
        match Hashtbl.find_opt t.replica_owner (key, site) with
        | Some current when current = holder ->
          let _, legs1 = Search_tree.remove st ~key in
          (* re-point to the best surviving replica this tree covers *)
          let candidates =
            List.filter
              (fun v -> List.mem site (Hashtbl.find t.covering v))
              survivors
          in
          (match
             List.sort
               (fun a b -> compare (replica_rank t root a) (replica_rank t root b))
               candidates
           with
          | [] ->
            Hashtbl.remove t.replica_owner (key, site);
            legs1
          | best :: _ ->
            Hashtbl.replace t.replica_owner (key, site) best;
            legs1
            @ Search_tree.insert st ~key
                ~data:(t.underlying.Underlying.u_label best))
        | _ -> [])
  in
  if survivors = [] then Hashtbl.remove t.replica_holders key
  else Hashtbl.replace t.replica_holders key survivors;
  cost

let replicas t ~key =
  Option.value ~default:[] (Hashtbl.find_opt t.replica_holders key)

let table_bits t v =
  let n = Metric.n t.metric in
  let directory =
    List.fold_left
      (fun acc site ->
        acc + Search_tree.table_bits (Hashtbl.find t.trees site) v)
      0
      (Option.value ~default:[] (Hashtbl.find_opt t.covering v))
  in
  Bits.id_bits n + directory
