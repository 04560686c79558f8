module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Trace = Cr_obs.Trace

type site =
  | Local of Search_tree.t
  | Link of int * Search_tree.t

type t = {
  first_level : int;
  top_level : int;
  hub : src:int -> level:int -> int;
  site : level:int -> hub:int -> site;
  label : int -> int;
}

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
let search t (mv : Walker.mover) ~goto ~hub ~level ~key =
  let run st =
    let result = Search_tree.search st ~key in
    Search_tree.pay result.legs ~jump:mv.jump ~goto;
    result.data
  in
  match t.site ~level ~hub with
  | Local st -> run st
  | Link (center, st) ->
    goto center;
    let data = run st in
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
let run ?(observe = fun (_ : level_report) -> ()) t (mv : Walker.mover)
    ~travel ~failovers ~dest_name =
  let goto v = travel (t.label v) in
  let rec attempt from i =
    if i > t.top_level then false
    else
      match
        let hub = t.hub ~src:from ~level:i in
        let before_climb = mv.cost () in
        mv.phase (Trace.Zoom i) (fun () -> goto hub);
        let before_search = mv.cost () in
        let result =
          mv.phase (Trace.Ball_search i) (fun () ->
              search t mv ~goto ~hub ~level:i ~key:dest_name)
        in
        observe
          { level = i; hub;
            climb_cost = before_search -. before_climb;
            search_cost = mv.cost () -. before_search;
            found = result <> None };
        match result with
        | Some dest_label ->
          mv.phase Trace.Deliver (fun () -> travel dest_label);
          true
        | None -> false
      with
      | true -> true
      | false -> attempt from (i + 1)
      | exception Walker.Blocked _ ->
        incr failovers;
        mv.phase Trace.Faults (fun () -> attempt (mv.position ()) (i + 1))
  in
  attempt (mv.position ()) t.first_level

let walk ?observe t mv ~travel ~dest_name =
  if not (run ?observe t mv ~travel ~failovers:(ref 0) ~dest_name) then
    invalid_arg "Ni_route.walk: name not found at the top level"

let walk_degraded t mv ~travel ~dest_name =
  let failovers = ref 0 in
  let status =
    match run t mv ~travel ~failovers ~dest_name with
    | true -> if !failovers = 0 then Scheme.Delivered else Scheme.Rerouted
    | false -> Scheme.Undeliverable
    | exception Walker.Hop_budget_exhausted -> Scheme.Undeliverable
  in
  (status, !failovers)

let found_level t ~src ~dest_name =
  let rec attempt i =
    if i > t.top_level then invalid_arg "Ni_route.found_level: name not found"
    else
      let (Local st | Link (_, st)) =
        t.site ~level:i ~hub:(t.hub ~src ~level:i)
      in
      match (Search_tree.search st ~key:dest_name).data with
      | Some _ -> i
      | None -> attempt (i + 1)
  in
  attempt t.first_level
