module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Ni_route = Cr_core.Ni_route

type t = {
  nt : Netting_tree.t;
  metric : Metric.t;
  route : Ni_route.t;  (* Algorithm 3 over the directory trees *)
  eps_eff : float;
  underlying : Scheme.labeled;
  key_universe : int;
  trees : (int * int, Search_tree.t) Hashtbl.t;  (* (level, net point) *)
  covering : (int, (int * int) list) Hashtbl.t;
      (* node -> (level, net point) of every tree whose ball contains it *)
  holders : (int, int) Hashtbl.t;  (* key -> current holder *)
  replica_holders : (int, int list) Hashtbl.t;  (* key -> holders, sorted *)
  replica_owner : (int * (int * int), int) Hashtbl.t;
      (* (key, tree site) -> the replica whose label that tree stores *)
}

let create nt ~epsilon ~underlying ~key_universe =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Directory.create: epsilon must be in (0, 1)";
  if key_universe < 1 then
    invalid_arg "Directory.create: key_universe must be positive";
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let top = Hierarchy.top_level h in
  let eps_eff = Cr_core.Ni_scheme.effective_epsilon epsilon in
  let trees = Hashtbl.create 64 in
  let covering = Hashtbl.create (Metric.n m) in
  for i = 0 to top do
    let radius = Float.pow 2.0 (float_of_int i) /. eps_eff in
    List.iter
      (fun u ->
        let members = Metric.ball m ~center:u ~radius in
        let st =
          Search_tree.build_keyspace m ~epsilon:eps_eff ~center:u ~radius
            ~members ~level_cap:None ~universe:key_universe
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
  let route =
    { Ni_route.first_level = 0; top_level = top;
      tree = nt;
      site =
        (fun ~level ~hub -> Ni_route.Local (Hashtbl.find trees (level, hub)));
      label = underlying.Scheme.label }
  in
  { nt; metric = m; route; eps_eff; underlying; key_universe; trees;
    covering; holders = Hashtbl.create 64;
    replica_holders = Hashtbl.create 16; replica_owner = Hashtbl.create 64 }

let walk_to t w node =
  t.underlying.Scheme.walk w ~dest_label:(t.underlying.Scheme.label node)

let budget m = 200_000 + (500 * Metric.n m)

let check_key t key =
  if key < 0 || key >= t.key_universe then
    invalid_arg "Directory: key out of range"

(* (level, net point) sites in increasing order *)
let compare_sites (i, u) (j, v) =
  match Int.compare i j with 0 -> Int.compare u v | c -> c

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
    (List.sort compare_sites (Hashtbl.find t.covering holder));
  walk_to t w holder;
  Walker.cost w

let publish t ~key ~holder =
  check_key t key;
  if Hashtbl.mem t.holders key || Hashtbl.mem t.replica_holders key then
    invalid_arg "Directory.publish: key already published";
  let label = t.underlying.Scheme.label holder in
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
  if
    Ni_route.run t.route w
      ~travel:(fun dest_label -> t.underlying.Scheme.walk w ~dest_label)
      ~failovers:(ref 0) ~dest_name:key
  then Some (Walker.position w)
  else None

(* --- replicated objects --- *)

(* Which replica a tree should hold: the one nearer the tree's center,
   then the lesser id. *)
let compare_replicas t root a b =
  let d v = Metric.dist t.metric v root in
  match Float.compare (d a) (d b) with 0 -> Int.compare a b | c -> c

let publish_replica t ~key ~holder =
  check_key t key;
  if Hashtbl.mem t.holders key then
    invalid_arg "Directory.publish_replica: key is singly published";
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt t.replica_holders key)
  in
  if List.mem holder existing then
    invalid_arg "Directory.publish_replica: already a replica holder";
  let label = t.underlying.Scheme.label holder in
  let cost =
    tour t ~holder ~action:(fun st ((_, root) as site) ->
        match Hashtbl.find_opt t.replica_owner (key, site) with
        | None ->
          Hashtbl.replace t.replica_owner (key, site) holder;
          Search_tree.insert st ~key ~data:label
        | Some current ->
          if compare_replicas t root holder current < 0 then begin
            Hashtbl.replace t.replica_owner (key, site) holder;
            let _, legs1 = Search_tree.remove st ~key in
            let legs2 = Search_tree.insert st ~key ~data:label in
            legs1 @ legs2
          end
          else [])
  in
  Hashtbl.replace t.replica_holders key
    (List.sort Int.compare (holder :: existing));
  cost
