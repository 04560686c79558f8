module Graph = Cr_metric.Graph

let induced g keep =
  if keep = [] then invalid_arg "Component.induced: empty node set";
  let keep = List.sort_uniq Int.compare keep in
  let index = Hashtbl.create (List.length keep) in
  List.iteri (fun i v -> Hashtbl.replace index v i) keep;
  let g' = Graph.create (List.length keep) in
  List.iter
    (fun (e : Graph.edge) ->
      match (Hashtbl.find_opt index e.u, Hashtbl.find_opt index e.v) with
      | Some u', Some v' -> Graph.add_edge g' u' v' e.w
      | _ -> ())
    (Graph.edges g);
  g'

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let id = !count in
      incr count;
      let rec visit = function
        | [] -> ()
        | u :: rest ->
          let rest =
            List.fold_left
              (fun acc (v, _) ->
                if comp.(v) = -1 then begin
                  comp.(v) <- id;
                  v :: acc
                end
                else acc)
              rest (Graph.neighbors g u)
          in
          visit rest
      in
      comp.(s) <- id;
      visit [ s ]
    end
  done;
  (comp, !count)

let largest g =
  let comp, count = components g in
  let sizes = Array.make count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  let best = ref 0 in
  for c = 1 to count - 1 do
    if sizes.(c) > sizes.(!best) then best := c
  done;
  let keep = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if comp.(v) = !best then keep := v :: !keep
  done;
  induced g !keep
