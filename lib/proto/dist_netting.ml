module Graph = Cr_metric.Graph
module Metric = Cr_metric.Metric

type announce = Announce of { origin : int; traveled : float }

let measure_announce g =
  let u = Wire.universe (Graph.n g) in
  fun (Announce { origin; traveled }) ->
    Wire.node u origin + Wire.float traveled

type best = {
  mutable choice : int;
      (* least (distance, id) upper-level node heard of, -1 before any;
         its distance is [seen.(choice)] *)
  seen : float array;  (* flood dedup: best traveled per origin *)
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
    if traveled < state.seen.(origin) && traveled <= radius then begin
      let c = state.choice in
      if
        c < 0
        || traveled < state.seen.(c)
        || (traveled = state.seen.(c) && origin < c)
      then state.choice <- origin;
      state.seen.(origin) <- traveled;
      (* descending slots: [Graph.iter_neighbors]'s send order, with no
         closure per delivery *)
      let ids = Graph.row_ids g self and wts = Graph.row_weights g self in
      for i = Graph.degree g self - 1 downto 0 do
        if traveled +. wts.(i) <= radius then
          actions.Network.send ids.(i)
            (Announce { origin; traveled = traveled +. wts.(i) })
      done
    end;
    state
  in
  let kickoff =
    List.map (fun u -> (u, Announce { origin = u; traveled = 0.0 })) upper
  in
  let states, stats =
    runner.Network.execute ~measure:(measure_announce g) g ~protocol:label
      ~init:(fun _ -> { choice = -1; seen = Array.make n infinity })
      ~handler ~kickoff ~max_messages
  in
  let parent = Array.make n (-1) in
  List.iter
    (fun x ->
      let id = states.(x).choice in
      if id >= 0 then parent.(x) <- id
      else
        raise
          (Network.Protocol_error
             { protocol = label;
               node = Some x;
               stats;
               detail =
                 Printf.sprintf "covering bound violated (radius %g)" radius }))
    members;
  { parent; stats }
