module Graph = Cr_metric.Graph

let square ~side =
  if side < 2 then invalid_arg "Grid.square: side must be >= 2";
  let g = Graph.create (side * side) in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      let id = (r * side) + c in
      if c + 1 < side then Graph.add_edge g id (id + 1) 1.0;
      if r + 1 < side then Graph.add_edge g id (id + side) 1.0
    done
  done;
  g

let with_holes ~side ~hole_fraction ~seed =
  if hole_fraction < 0.0 || hole_fraction > 0.5 then
    invalid_arg "Grid.with_holes: hole_fraction must be in [0, 0.5]";
  let g = square ~side in
  let rng = Rng.create seed in
  let n = side * side in
  let keep = ref [] in
  for v = n - 1 downto 0 do
    if Rng.float rng 1.0 >= hole_fraction then keep := v :: !keep
  done;
  if !keep = [] then g
  else Component.largest (Component.induced g !keep)
