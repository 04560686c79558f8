module Graph = Cr_metric.Graph

type msg = Hello of { origin : int; traveled : float }

type result = {
  distances : float array array;
  stats : Network.stats;
}

let measure g =
  let u = Wire.universe (Graph.n g) in
  fun (Hello { origin; traveled }) ->
    Wire.node u origin + Wire.float traveled

let run ?via g =
  let n = Graph.n g in
  let max_messages = 1000 + (400 * n * n) in
  let runner = match via with Some r -> r | None -> Network.local () in
  (* all entries start at infinity — including the node's own, so that the
     kick-off self-message passes the relaxation guard and floods out *)
  let init _ = Array.make n infinity in
  let handler (actions : msg Network.actions) ~self dist
      (Hello { origin; traveled }) =
    if traveled < dist.(origin) then begin
      dist.(origin) <- traveled;
      Graph.iter_neighbors g self (fun v w ->
          actions.Network.send v (Hello { origin; traveled = traveled +. w }))
    end;
    dist
  in
  let kickoff =
    List.init n (fun v -> (v, Hello { origin = v; traveled = 0.0 }))
  in
  let states, stats =
    runner.Network.execute ~measure:(measure g) g ~protocol:"dist_radii" ~init
      ~handler ~kickoff ~max_messages
  in
  { distances = states; stats }

let radius_of_size distances u size =
  let row = Array.copy distances.(u) in
  Array.sort Float.compare row;
  if size < 1 || size > Array.length row then
    invalid_arg "Dist_radii.radius_of_size: size out of range";
  row.(size - 1)
