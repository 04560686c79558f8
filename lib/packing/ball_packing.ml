module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits

type ball = {
  center : int;
  radius : float;
  members : int array;
}

type level = {
  j : int;
  balls : ball list;
  covering : ball array;  (* covering.(u) = Property-2 witness for u *)
}

(* Greedy scan in increasing candidate-radius order. A candidate (u's
   2^j nearest nodes, entries 0 .. 2^j - 1 of u's neighbour order) is
   packed iff its member set is disjoint from every ball packed so far.
   The Property-2 witness for node u is u's own ball when accepted, and
   otherwise the earlier-packed ball holding u's first taken candidate
   member x: that ball's radius is <= r_u(j) by the scan order, and
   d(u,c) <= d(u,x) + d(x,c) <= 2 r_u(j). Candidates are read off the
   order in place, so only packed balls get a member array. *)
let build_level m ~j =
  let n = Metric.n m in
  if j < 0 || 1 lsl j > n then
    invalid_arg "Ball_packing.build_level: 2^j must be at most n";
  let size = 1 lsl j in
  let radius = Array.init n (fun u -> Metric.radius_of_size m u size) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare radius.(a) radius.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let container = Array.make n None in  (* packed ball holding this node *)
  let covering = Array.make n None in
  let balls = ref [] in
  (* the packed ball holding u's first taken candidate member, if any *)
  let rec clash u k =
    if k = size then None
    else
      match container.(Metric.nth_nearest m u k) with
      | Some _ as b -> b
      | None -> clash u (k + 1)
  in
  Array.iter
    (fun u ->
      match clash u 0 with
      | None ->
        let b =
          { center = u; radius = radius.(u);
            members = Array.init size (Metric.nth_nearest m u) }
        in
        let packed = Some b in
        balls := b :: !balls;
        Array.iter (fun v -> container.(v) <- packed) b.members;
        covering.(u) <- packed
      | Some _ as w -> covering.(u) <- w)
    order;
  let covering =
    Array.map (function Some b -> b | None -> assert false) covering
  in
  { j; balls = List.rev !balls; covering }

let build_all m =
  let n = Metric.n m in
  let top = Bits.ceil_log2 n in
  let top = if 1 lsl top > n then top - 1 else top in
  Array.init (top + 1) (fun j -> build_level m ~j)

let size_exponent lv = lv.j
let balls lv = lv.balls
let covering_ball lv u = lv.covering.(u)

let centers lv =
  List.sort Int.compare (List.map (fun b -> b.center) lv.balls)
