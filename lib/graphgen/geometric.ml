module Graph = Cr_metric.Graph

let euclid (x1, y1) (x2, y2) =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  sqrt ((dx *. dx) +. (dy *. dy))

(* Coincident samples would create zero-weight edges, which Graph rejects;
   we clamp to a tiny positive length instead. *)
let safe_dist p q = Float.max (euclid p q) 1e-9

let add_edge_once g u v w =
  if u <> v && Graph.edge_weight g u v = None then Graph.add_edge g u v w

let connect_components g points =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  let recompute () =
    Array.fill comp 0 n (-1);
    count := 0;
    for s = 0 to n - 1 do
      if comp.(s) = -1 then begin
        let id = !count in
        incr count;
        comp.(s) <- id;
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
        visit [ s ]
      end
    done
  in
  recompute ();
  while !count > 1 do
    (* Link the globally closest cross-component pair. *)
    let best = ref (infinity, -1, -1) in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if comp.(u) <> comp.(v) then begin
          let d = safe_dist points.(u) points.(v) in
          let bd, _, _ = !best in
          if d < bd then best := (d, u, v)
        end
      done
    done;
    let d, u, v = !best in
    add_edge_once g u v d;
    recompute ()
  done

let of_points points k =
  let n = Array.length points in
  if k < 1 || k >= n then invalid_arg "Geometric: need 1 <= k < n";
  let g = Graph.create n in
  let order = Array.init n Fun.id in
  for u = 0 to n - 1 do
    let by_dist = Array.copy order in
    Array.sort
      (fun a b ->
        Float.compare
          (safe_dist points.(u) points.(a))
          (safe_dist points.(u) points.(b)))
      by_dist;
    (* by_dist.(0) is u itself (distance ~0). *)
    let added = ref 0 in
    let i = ref 0 in
    while !added < k && !i < n do
      let v = by_dist.(!i) in
      if v <> u then begin
        add_edge_once g u v (safe_dist points.(u) points.(v));
        incr added
      end;
      incr i
    done
  done;
  connect_components g points;
  g

let knn ~n ~k ~seed =
  if n < 2 then invalid_arg "Geometric.knn: n must be >= 2";
  let rng = Rng.create seed in
  let points =
    Array.init n (fun _ ->
        let x = Rng.float rng 1.0 in
        let y = Rng.float rng 1.0 in
        (x, y))
  in
  of_points points k

(* Bucketed variant for the scale tier: a uniform grid of ~n/(k+3) cells,
   ring-expanding candidate search per node, and a single union-find sweep
   along the x-sorted point order for connectivity — O(n log n) overall
   where [knn] pays O(n^2) per node sort and O(n^2) per component merge. *)
let knn_bucketed ~n ~k ~seed =
  if n < 2 then invalid_arg "Geometric.knn_bucketed: n must be >= 2";
  if k < 1 || k >= n then
    invalid_arg "Geometric.knn_bucketed: need 1 <= k < n";
  let rng = Rng.create seed in
  let points =
    Array.init n (fun _ ->
        let x = Rng.float rng 1.0 in
        let y = Rng.float rng 1.0 in
        (x, y))
  in
  let side =
    max 1 (int_of_float (sqrt (float_of_int n /. float_of_int (k + 3))))
  in
  let cell x = min (side - 1) (int_of_float (x *. float_of_int side)) in
  let buckets = Array.make (side * side) [] in
  for i = n - 1 downto 0 do
    let x, y = points.(i) in
    buckets.((cell y * side) + cell x) <- i :: buckets.((cell y * side) + cell x)
  done;
  let g = Graph.create n in
  for u = 0 to n - 1 do
    let x, y = points.(u) in
    let cx = cell x and cy = cell y in
    let cands = ref [] and count = ref 0 in
    let add_ring r =
      for gy = cy - r to cy + r do
        for gx = cx - r to cx + r do
          if
            (abs (gx - cx) = r || abs (gy - cy) = r)
            && gx >= 0 && gx < side && gy >= 0 && gy < side
          then
            List.iter
              (fun v ->
                if v <> u then begin
                  cands := v :: !cands;
                  incr count
                end)
              buckets.((gy * side) + gx)
        done
      done
    in
    let r = ref 0 in
    while !count < k + 1 && !r <= side do
      add_ring !r;
      incr r
    done;
    (* One guard ring: a point in the next ring can be closer than one
       already collected, so widen once past the count threshold. *)
    if !r <= side then add_ring !r;
    let arr = Array.of_list !cands in
    Array.sort
      (fun a b ->
        let da = safe_dist points.(u) points.(a)
        and db = safe_dist points.(u) points.(b) in
        let c = Float.compare da db in
        if c <> 0 then c else Int.compare a b)
      arr;
    for i = 0 to min k (Array.length arr) - 1 do
      add_edge_once g u arr.(i) (safe_dist points.(u) points.(arr.(i)))
    done
  done;
  (* Union-find over the kNN edges, then stitch the x-sorted chain: linking
     consecutive points whenever they sit in different components makes the
     graph connected in one deterministic pass. *)
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter (fun (e : Graph.edge) -> union e.u e.v) (Graph.edges g);
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let xa, ya = points.(a) and xb, yb = points.(b) in
      let c = Float.compare xa xb in
      if c <> 0 then c
      else
        let c = Float.compare ya yb in
        if c <> 0 then c else Int.compare a b)
    order;
  for i = 0 to n - 2 do
    let u = order.(i) and v = order.(i + 1) in
    if find u <> find v then begin
      add_edge_once g u v (safe_dist points.(u) points.(v));
      union u v
    end
  done;
  g

let gaussian rng =
  let u1 = Float.max (Rng.float rng 1.0) 1e-12 in
  let u2 = Rng.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let clustered ~clusters ~per_cluster ~spread ~k ~seed =
  if clusters < 1 || per_cluster < 1 then
    invalid_arg "Geometric.clustered: need positive cluster counts";
  let rng = Rng.create seed in
  let centers =
    Array.init clusters (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0))
  in
  let points =
    Array.init (clusters * per_cluster) (fun i ->
        let cx, cy = centers.(i / per_cluster) in
        (cx +. (spread *. gaussian rng), cy +. (spread *. gaussian rng)))
  in
  of_points points k
