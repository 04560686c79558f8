module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric

type announce = Announce of { origin : int; traveled : float }

let measure_announce g =
  let u = Wire.universe (Graph.n g) in
  fun (Announce { origin; traveled }) ->
    Wire.node u origin + Wire.float traveled

type best = {
  mutable choice : (float * int) option;  (* (distance, id), lexicographic *)
  seen : (int, float) Hashtbl.t;  (* flood dedup *)
}

type result = {
  parent : int array;
  stats : Network.stats;
}

let parents_for_level ?via ?(label = "dist_netting") m
    ~members ~upper ~radius =
  let g = Metric.graph m in
  let n = Metric.n m in
  let max_messages = 1000 + (200 * n * n) in
  let runner = match via with Some r -> r | None -> Network.local () in
  let handler (actions : announce Network.actions) ~self state
      (Announce { origin; traveled }) =
    let stale =
      match Hashtbl.find_opt state.seen origin with
      | Some d -> traveled >= d
      | None -> false
    in
    if (not stale) && traveled <= radius then begin
      Hashtbl.replace state.seen origin traveled;
      let better =
        match state.choice with
        | None -> true
        | Some (d, id) -> traveled < d || (traveled = d && origin < id)
      in
      if better then state.choice <- Some (traveled, origin);
      Graph.iter_neighbors g self (fun v w ->
          if traveled +. w <= radius then
            actions.Network.send v
              (Announce { origin; traveled = traveled +. w }))
    end;
    state
  in
  let kickoff =
    List.map (fun u -> (u, Announce { origin = u; traveled = 0.0 })) upper
  in
  let states, stats =
    runner.Network.execute ~measure:(measure_announce g) g ~protocol:label
      ~init:(fun _ -> { choice = None; seen = Hashtbl.create 8 })
      ~handler ~kickoff ~max_messages
  in
  let parent = Array.make n (-1) in
  List.iter
    (fun x ->
      match states.(x).choice with
      | Some (_, id) -> parent.(x) <- id
      | None ->
        raise
          (Network.Protocol_error
             { protocol = label;
               node = Some x;
               stats;
               detail =
                 Printf.sprintf "covering bound violated (radius %g)" radius }))
    members;
  { parent; stats }
