module Graph = Cr_metric.Graph
module Bounded = Cr_metric.Bounded

type t = {
  top_level : int;
  nets : int list array;  (* nets.(i) = Y_i, sorted *)
  member : bool array array;  (* member.(i).(v) *)
  nearest : int array array;  (* nearest.(i).(v) = nearest point of Y_i *)
  nearest_dist : float array array;
  settled : int;
}

let net_radius i = Float.pow 2.0 (float_of_int i)

let build g ~top_level:top =
  if top < 1 then invalid_arg "Net_levels.build: top_level must be >= 1";
  let n = Graph.n g in
  let b = Bounded.create n in
  let work = ref 0 in
  let nets = Array.make (top + 1) [] in
  nets.(top) <- [ 0 ];
  (* Greedy net per level, coarser net as seed. [cov_stamp.(v) = round]
     iff some already-accepted point's ball reached v strictly within the
     radius: the negation of the matrix greedy's far-from-net test
     (Rnet.greedy), so the accepted set is identical. *)
  let cov_stamp = Array.make n 0 in
  let round = ref 0 in
  for i = top - 1 downto 1 do
    incr round;
    let r = net_radius i in
    let cover y =
      work := !work + Bounded.run b g ~src:y ~radius:r;
      Bounded.iter_settled b (fun v ->
          if Bounded.dist b v < r then cov_stamp.(v) <- !round)
    in
    List.iter cover nets.(i + 1);
    let added = ref [] in
    for v = 0 to n - 1 do
      if cov_stamp.(v) <> !round then begin
        added := v :: !added;
        cover v
      end
    done;
    nets.(i) <- List.sort Int.compare (List.rev_append !added nets.(i + 1))
  done;
  nets.(0) <- List.init n Fun.id;
  let member =
    Array.map
      (fun net ->
        let flags = Array.make n false in
        List.iter (fun v -> flags.(v) <- true) net;
        flags)
      nets
  in
  let nearest = Array.make (top + 1) [||] in
  let nearest_dist = Array.make (top + 1) [||] in
  nearest.(0) <- Array.init n Fun.id;
  nearest_dist.(0) <- Array.make n 0.0;
  for i = 1 to top do
    (* Covering: every node is strictly within 2^i of Y_i (greedy
       invariant), except at the top {0}, where only ecc(0) bounds it; so
       the top runs unbounded and the rest truncate at 2^i. *)
    let r = if i = top then infinity else net_radius i in
    work := !work + Bounded.run_multi b g ~sources:nets.(i) ~radius:r;
    nearest.(i) <- Array.init n (Bounded.owner b);
    nearest_dist.(i) <- Array.init n (Bounded.dist b)
  done;
  { top_level = top;
    nets;
    member;
    nearest;
    nearest_dist;
    settled = !work }

let top_level t = t.top_level

let check_level t i =
  if i < 0 || i > t.top_level then invalid_arg "Net_levels: level out of range"

let net t i =
  check_level t i;
  t.nets.(i)

let mem t ~level v =
  check_level t level;
  t.member.(level).(v)

let highest_level_of t v =
  let rec go i = if t.member.(i).(v) then i else go (i - 1) in
  go t.top_level

let nearest_net_point t ~level v =
  check_level t level;
  t.nearest.(level).(v)

let nearest_net_dist t ~level v =
  check_level t level;
  t.nearest_dist.(level).(v)

let net_points t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.nets
let settled_work t = t.settled
