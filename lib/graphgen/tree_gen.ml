module Graph = Cr_metric.Graph

let random_attachment ~n ~max_degree ~seed =
  if n < 2 then invalid_arg "Tree_gen.random_attachment: n must be >= 2";
  if max_degree < 2 then
    invalid_arg "Tree_gen.random_attachment: max_degree must be >= 2";
  let rng = Rng.create seed in
  let g = Graph.create n in
  (* [open_slots] lists nodes that can still accept a child. *)
  let open_slots = ref [| 0 |] in
  for v = 1 to n - 1 do
    let slots = !open_slots in
    let parent = slots.(Rng.int rng (Array.length slots)) in
    Graph.add_edge g parent v 1.0;
    let keep u = Graph.degree g u < max_degree in
    open_slots :=
      Array.of_list (List.filter keep (v :: Array.to_list slots))
  done;
  g
