module Graph = Cr_metric.Graph
module Network = Cr_proto.Network

type crash = {
  node : int;
  down_at : float;
  up_at : float;
}

type t = {
  seed : int;
  drop : float;
  duplicate : float;
  delay_prob : float;
  delay_factor : float;
  crashes : crash list;
  edge_drop : ((int * int) * float) list;
}

let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Plan.make: %s must lie in [0, 1]" name)

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(delay_prob = 0.0)
    ?(delay_factor = 0.0) ?(crashes = []) ?(edge_drop = []) ~seed () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "delay_prob" delay_prob;
  if delay_factor < 0.0 then
    invalid_arg "Plan.make: delay_factor must be non-negative";
  List.iter
    (fun c ->
      if c.node < 0 then invalid_arg "Plan.make: crash node out of range";
      if not (c.up_at > c.down_at && c.down_at >= 0.0) then
        invalid_arg "Plan.make: crash window must satisfy 0 <= down_at < up_at")
    crashes;
  List.iter (fun (_, p) -> check_prob "edge_drop" p) edge_drop;
  { seed; drop; duplicate; delay_prob; delay_factor; crashes; edge_drop }

let none ~seed = make ~seed ()

let is_null t =
  Float.equal t.drop 0.0 && Float.equal t.duplicate 0.0
  && Float.equal t.delay_prob 0.0
  && t.crashes = []
  && List.for_all (fun (_, p) -> Float.equal p 0.0) t.edge_drop

(* Decision tags: distinct last-mixed ints keep the drop / inflate /
   duplicate draws of one message independent. *)
let tag_drop = 0
let tag_inflate = 1
let tag_inflate_amount = 2
let tag_duplicate = 3
let tag_dup_copy = 4

let hooks t =
  let root = Splitmix.of_int t.seed in
  (* per-directed-edge message index: the only mutable hook state; calls
     happen in simulator delivery order, which is itself deterministic *)
  let counters : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let edge_drop : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((u, v), p) ->
      Hashtbl.replace edge_drop (u, v) p;
      Hashtbl.replace edge_drop (v, u) p)
    t.edge_drop;
  let windows : (int, (float * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let prev =
        match Hashtbl.find_opt windows c.node with Some l -> l | None -> []
      in
      Hashtbl.replace windows c.node ((c.down_at, c.up_at) :: prev))
    t.crashes;
  let inflate key delay =
    if
      t.delay_prob > 0.0
      && Splitmix.uniform (Splitmix.mix key tag_inflate) < t.delay_prob
    then
      delay
      *. (1.0
         +. (t.delay_factor
            *. Splitmix.uniform (Splitmix.mix key tag_inflate_amount)))
    else delay
  in
  let copies ~src ~dst ~delay =
    let i =
      match Hashtbl.find_opt counters (src, dst) with Some c -> c | None -> 0
    in
    Hashtbl.replace counters (src, dst) (i + 1);
    let key =
      Splitmix.mix (Splitmix.mix (Splitmix.mix root src) dst) i
    in
    let drop_p =
      match Hashtbl.find_opt edge_drop (src, dst) with
      | Some p -> p
      | None -> t.drop
    in
    if
      drop_p > 0.0 && Splitmix.uniform (Splitmix.mix key tag_drop) < drop_p
    then []
    else begin
      let first = inflate key delay in
      if
        t.duplicate > 0.0
        && Splitmix.uniform (Splitmix.mix key tag_duplicate) < t.duplicate
      then [ first; inflate (Splitmix.mix key tag_dup_copy) delay ]
      else [ first ]
    end
  in
  let down_until ~node ~time =
    match Hashtbl.find_opt windows node with
    | None -> None
    | Some ws ->
      List.fold_left
        (fun acc (d, u) ->
          if time >= d && time < u then
            match acc with
            | Some best when best >= u -> acc
            | _ -> Some u
          else acc)
        None ws
  in
  { Network.copies; down_until }

let describe t =
  let crash_part =
    match t.crashes with
    | [] -> ""
    | cs -> Printf.sprintf ", %d crash window(s)" (List.length cs)
  in
  Printf.sprintf
    "seed %d: drop %.3f, duplicate %.3f, delay %.3f (x<=%.2f)%s" t.seed
    t.drop t.duplicate t.delay_prob (1.0 +. t.delay_factor) crash_part

(* ---- static failure sampling for degraded-mode routing ---- *)

let sample_edge_failures ~seed ~rate g =
  check_prob "rate" rate;
  let root = Splitmix.mix (Splitmix.of_int seed) 0xED6E in
  List.filter_map
    (fun { Graph.u; v; _ } ->
      let lo, hi = if u < v then (u, v) else (v, u) in
      let key = Splitmix.mix (Splitmix.mix root lo) hi in
      if Splitmix.uniform key < rate then Some (lo, hi) else None)
    (Graph.edges g)

let sample_node_failures ?(protect = []) ~seed ~fraction n =
  check_prob "fraction" fraction;
  let root = Splitmix.mix (Splitmix.of_int seed) 0x0DE5 in
  let protected = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace protected v ()) protect;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if
      (not (Hashtbl.mem protected v))
      && Splitmix.uniform (Splitmix.mix root v) < fraction
    then out := v :: !out
  done;
  !out
