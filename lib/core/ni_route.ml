module Netting_tree = Cr_nets.Netting_tree
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Trace = Cr_obs.Trace

type site =
  | Local of Search_tree.t
  | Link of int * Search_tree.t

type t = {
  first_level : int;
  top_level : int;
  tree : Netting_tree.t;
  site : level:int -> hub:int -> site;
  label : int -> int;
}

let site_table ~scheme ~n sites ~level ~hub =
  let i = (level * n) + hub in
  match
    if hub >= 0 && hub < n && i >= 0 && i < Array.length sites then sites.(i)
    else None
  with
  | Some site -> site
  | None ->
    invalid_arg
      (Printf.sprintf "%s: no search site at level %d, node %d" scheme level
         hub)

type level_report = {
  level : int;
  hub : int;
  climb_cost : float;
  search_cost : float;
  found : bool;
}

(* Algorithm 4: search the hub's own tree, or follow the H(u, i) link to a
   packed ball's center, search there, and come back. Every leg endpoint
   holds the other's routing label, so a net edge is one labeled route. *)
let search t ~jump ~goto ~hub ~level ~key =
  match t.site ~level ~hub with
  | Local st -> Search_tree.walk st ~key ~jump ~goto
  | Link (center, st) ->
    goto center;
    let data = Search_tree.walk st ~key ~jump ~goto in
    goto hub;
    data

(* Algorithm 3 with the E18 failover rule: a [Walker.Blocked] during the
   climb, the search round trip, or the final descent abandons the level
   and re-enters the zooming sequence one level up, *from the packet's
   current position* (its zoom hubs are valid from anywhere). Every hop
   after the first failover is tagged [Faults] — the phase's outer-wins
   rule keeps the tag through the inner calls — so stretch inflation under
   failures is attributable hop by hop. Returns whether the name was found
   at or below the top level; [failovers] counts the failovers taken. *)
let run ?observe t w ~travel ~failovers ~dest_name =
  let goto v = travel (t.label v) in
  let jump v cost = Walker.teleport w v ~cost in
  let rec attempt from i =
    if i > t.top_level then false
    else
      match
        let hub = Netting_tree.ancestor t.tree from ~level:i in
        (* the cost reads and the report happen only for an observer *)
        let observed = Option.is_some observe in
        let before_climb = if observed then Walker.cost w else 0.0 in
        Walker.with_phase w (Trace.Zoom i) (fun () -> goto hub);
        let before_search = if observed then Walker.cost w else 0.0 in
        let result =
          Walker.with_phase w (Trace.Ball_search i) (fun () ->
              search t ~jump ~goto ~hub ~level:i ~key:dest_name)
        in
        (match observe with
        | Some observe ->
          observe
            { level = i; hub;
              climb_cost = before_search -. before_climb;
              search_cost = Walker.cost w -. before_search;
              found = Option.is_some result }
        | None -> ());
        match result with
        | Some dest_label ->
          Walker.with_phase w Trace.Deliver (fun () -> travel dest_label);
          true
        | None -> false
      with
      | true -> true
      | false -> attempt from (i + 1)
      | exception Walker.Blocked _ ->
        incr failovers;
        Walker.with_phase w Trace.Faults (fun () ->
            attempt (Walker.position w) (i + 1))
  in
  attempt (Walker.position w) t.first_level

let walk ?observe t w ~travel ~dest_name =
  if not (run ?observe t w ~travel ~failovers:(ref 0) ~dest_name) then
    invalid_arg "Ni_route.walk: name not found at the top level"

let found_level t ~src ~dest_name =
  let rec attempt i =
    if i > t.top_level then invalid_arg "Ni_route.found_level: name not found"
    else
      let (Local st | Link (_, st)) =
        t.site ~level:i ~hub:(Netting_tree.ancestor t.tree src ~level:i)
      in
      match (Search_tree.search st ~key:dest_name).data with
      | Some _ -> i
      | None -> attempt (i + 1)
  in
  attempt t.first_level
