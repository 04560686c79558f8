module Graph = Cr_metric.Graph
module Trace = Cr_obs.Trace

type t = {
  graph : Graph.t;
  top_level : int;
  nets : int list array;  (* nets.(i) = Y_i, sorted *)
  member : bool array array;
  nearest : int array array;
  nearest_dist : float array array;
  settled : int;
}

let net_radius i = Float.pow 2.0 (float_of_int i)

let build ?obs ?levels oracle =
  let ctx = Trace.resolve obs in
  Trace.span ctx "scale.nets.build" (fun () ->
      let g = Oracle.graph oracle in
      let n = Graph.n g in
      let top =
        match levels with
        | Some l ->
          if l < 1 then invalid_arg "Nets.build: levels must be >= 1" else l
        | None -> Oracle.levels_upper oracle
      in
      let b = Bounded.create n in
      let work = ref 0 in
      let nets = Array.make (top + 1) [] in
      nets.(top) <- [ 0 ];
      (* Greedy net per level, coarser net as seed. [cov_stamp.(v) = round]
         iff some already-accepted point's ball reached v strictly within
         the radius — exactly the negation of Rnet.greedy's far-from-net
         test, so the accepted set is identical. *)
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
           invariant) — except the top {0}, where only ecc(0) bounds it —
           so the top runs unbounded and the rest truncate at 2^i. *)
        let r = if i = top then infinity else net_radius i in
        work := !work + Bounded.run_multi b g ~sources:nets.(i) ~radius:r;
        nearest.(i) <- Array.init n (fun v -> Bounded.owner b v);
        nearest_dist.(i) <- Array.init n (fun v -> Bounded.dist b v)
      done;
      if Trace.enabled ctx then begin
        Trace.counter ctx "scale.nets.levels" (float_of_int (top + 1));
        Trace.counter ctx "scale.nets.points"
          (float_of_int
             (Array.fold_left (fun acc l -> acc + List.length l) 0 nets));
        Trace.counter ctx "scale.nets.settled" (float_of_int !work)
      end;
      { graph = g;
        top_level = top;
        nets;
        member;
        nearest;
        nearest_dist;
        settled = !work })

let graph t = t.graph
let top_level t = t.top_level

let check_level t i =
  if i < 0 || i > t.top_level then invalid_arg "Nets: level out of range"

let net t i =
  check_level t i;
  t.nets.(i)

let mem t ~level v =
  check_level t level;
  t.member.(level).(v)

let nearest_net_point t ~level v =
  check_level t level;
  t.nearest.(level).(v)

let nearest_net_dist t ~level v =
  check_level t level;
  t.nearest_dist.(level).(v)

let settled_work t = t.settled
