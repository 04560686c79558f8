module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Rng = Cr_graphgen.Rng

let landmark_count n =
  let ln = Float.max 1.0 (log (float_of_int n)) in
  min n (max 1 (int_of_float (Float.ceil (sqrt (float_of_int n *. ln)))))

let sample ~n ~count ~seed =
  if count < 0 || count > n then
    invalid_arg "Landmark.sample: count out of range";
  let rng = Rng.create seed in
  let is_landmark = Array.make n false in
  let picked = ref 0 in
  while !picked < count do
    let v = Rng.int rng n in
    if not is_landmark.(v) then begin
      is_landmark.(v) <- true;
      incr picked
    end
  done;
  is_landmark

let node_bits ~n ~landmarks ~is_landmark ~bunch =
  let id = Bits.id_bits n in
  if is_landmark then (n - 1) * id
  else
    (* next hops to every landmark + the bunch, plus l(v)'s identity *)
    ((landmarks + bunch) * id) + id

type t = {
  metric : Metric.t;
  is_landmark : bool array;
  count : int;
  home : int array;  (* home.(u) = nearest landmark l(u) *)
  bunch_size : int array;
}

let build m ~seed =
  let n = Metric.n m in
  let count = landmark_count n in
  let is_landmark = sample ~n ~count ~seed in
  let landmarks =
    List.filter (fun v -> is_landmark.(v)) (List.init n Fun.id)
  in
  let home = Array.init n (fun u -> Metric.nearest_in m u landmarks) in
  let bunch_size =
    Array.init n (fun u ->
        if is_landmark.(u) then 0
        else begin
          let r = Metric.dist m u home.(u) in
          let count = ref 0 in
          for v = 0 to n - 1 do
            if v <> u && Metric.dist m u v < r then incr count
          done;
          !count
        end)
  in
  { metric = m; is_landmark; count; home; bunch_size }

(* Direct when [dst] is in the position's bunch (or it is a landmark),
   else via its home landmark. *)
let walk t w ~dest_label:dst =
  let src = Walker.position w in
  if src <> dst then begin
    let in_bunch =
      t.is_landmark.(src)
      || Metric.dist t.metric src dst
         < Metric.dist t.metric src t.home.(src)
    in
    if not in_bunch then Walker.walk_shortest_path w t.home.(src);
    Walker.walk_shortest_path w dst
  end

let table_bits t v =
  node_bits ~n:(Metric.n t.metric) ~landmarks:t.count
    ~is_landmark:t.is_landmark.(v) ~bunch:t.bunch_size.(v)

let home t u = t.home.(u)
let is_landmark t u = t.is_landmark.(u)

let labeled_of t =
  let m = t.metric in
  { Scheme.l_name = "landmark (TZ stretch-3)";
    label = Fun.id;
    (* applied in full: a partial [walk t] goes through curried
       application stubs on every route *)
    walk = (fun w ~dest_label -> walk t w ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = Bits.id_bits (Metric.n m);
    l_header_bits = 2 * Bits.id_bits (Metric.n m) }

let labeled m ~seed = labeled_of (build m ~seed)
