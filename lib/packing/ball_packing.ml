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
  by_center : ball option array;
}

let mem_ball b v = Array.exists (fun x -> x = v) b.members

let candidate m j u =
  let size = 1 lsl j in
  { center = u;
    radius = Metric.radius_of_size m u size;
    members = Array.of_list (Metric.nearest_k m u size) }

(* Greedy scan in increasing candidate-radius order. A candidate is packed
   iff its member set is disjoint from every ball packed so far. The
   Property-2 witness for node u is u's own ball when accepted, and
   otherwise the earlier-packed ball sharing a member x with u's candidate:
   that ball's radius is <= r_u(j) by the scan order, and
   d(u,c) <= d(u,x) + d(x,c) <= 2 r_u(j). *)
let build_level m ~j =
  let n = Metric.n m in
  if j < 0 || 1 lsl j > n then
    invalid_arg "Ball_packing.build_level: 2^j must be at most n";
  let cands = Array.init n (fun u -> candidate m j u) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare cands.(a).radius cands.(b).radius in
      if c <> 0 then c else Int.compare a b)
    order;
  let container = Array.make n None in  (* packed ball holding this node *)
  let covering = Array.make n None in
  let by_center = Array.make n None in
  let balls = ref [] in
  Array.iter
    (fun u ->
      let b = cands.(u) in
      let clash =
        Array.fold_left
          (fun acc v ->
            match acc with Some _ -> acc | None -> container.(v))
          None b.members
      in
      match clash with
      | None ->
        balls := b :: !balls;
        by_center.(u) <- Some b;
        Array.iter (fun v -> container.(v) <- Some b) b.members;
        covering.(u) <- Some b
      | Some w -> covering.(u) <- Some w)
    order;
  let covering =
    Array.map (function Some b -> b | None -> assert false) covering
  in
  { j; balls = List.rev !balls; covering; by_center }

let build_all m =
  let n = Metric.n m in
  let top = Bits.ceil_log2 n in
  let top = if 1 lsl top > n then top - 1 else top in
  Array.init (top + 1) (fun j -> build_level m ~j)

let size_exponent lv = lv.j
let balls lv = lv.balls
let covering_ball lv u = lv.covering.(u)
let ball_of_center lv c = lv.by_center.(c)

let centers lv =
  List.sort Int.compare (List.map (fun b -> b.center) lv.balls)
