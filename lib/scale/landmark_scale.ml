module Graph = Cr_metric.Graph
module Bits = Cr_metric.Bits
module Dijkstra = Cr_metric.Dijkstra
module Bounded = Cr_metric.Bounded
module Scheme = Cr_sim.Scheme
module Pool = Cr_par.Pool

type t = {
  graph : Graph.t;
  n : int;
  is_landmark : bool array;
  count : int;
  home : int array;
  home_dist : float array;
  bunch_size : int array;
  build_settled : int;
}

let bunch_chunks = 64

let build ?(pool = Pool.sequential) oracle ~seed =
  let g = Oracle.graph oracle in
  let n = Graph.n g in
  let target = Cr_baselines.Landmark.landmark_count n in
  let is_landmark = Cr_baselines.Landmark.sample ~n ~count:target ~seed in
  let landmarks =
    List.filter (fun v -> is_landmark.(v)) (List.init n Fun.id)
  in
  let b = Bounded.create n in
  let settled0 = Bounded.run_multi b g ~sources:landmarks ~radius:infinity in
  let home = Array.init n (fun v -> Bounded.owner b v) in
  let home_dist = Array.init n (fun v -> Bounded.dist b v) in
  (* One truncated search per non-landmark node, in [bunch_chunks] fixed
     chunks whatever the pool size: chunk boundaries (not scheduling)
     determine every count, so work totals are CR_DOMAINS-invariant. *)
  let chunk_results =
    Pool.parallel_init pool bunch_chunks (fun c ->
        let lo = c * n / bunch_chunks and hi = (c + 1) * n / bunch_chunks in
        let b = Bounded.create n in
        let sizes = Array.make (max 0 (hi - lo)) 0 in
        let settled = ref 0 in
        for u = lo to hi - 1 do
          if not is_landmark.(u) then begin
            let r = home_dist.(u) in
            settled := !settled + Bounded.run b g ~src:u ~radius:r;
            let count = ref 0 in
            Bounded.iter_settled b (fun v ->
                if v <> u && Bounded.dist b v < r then incr count);
            sizes.(u - lo) <- !count
          end
        done;
        (sizes, !settled))
  in
  let bunch_size = Array.make n 0 in
  let build_settled = ref settled0 in
  Array.iteri
    (fun c (sizes, settled) ->
      let lo = c * n / bunch_chunks in
      Array.iteri (fun i s -> bunch_size.(lo + i) <- s) sizes;
      build_settled := !build_settled + settled)
    chunk_results;
  { graph = g;
    n;
    is_landmark;
    count = target;
    home;
    home_dist;
    bunch_size;
    build_settled = !build_settled }

let home t u = t.home.(u)
let is_landmark t u = t.is_landmark.(u)
let landmark_count t = t.count
let build_settled t = t.build_settled

let table_bits t v =
  Cr_baselines.Landmark.node_bits ~n:t.n ~landmarks:t.count
    ~is_landmark:t.is_landmark.(v) ~bunch:t.bunch_size.(v)

let storage t =
  let max_bits = ref 0 and sum = ref 0.0 in
  for v = 0 to t.n - 1 do
    let bits = table_bits t v in
    if bits > !max_bits then max_bits := bits;
    sum := !sum +. float_of_int bits
  done;
  { Eval.bits_max = !max_bits;
    bits_avg = !sum /. float_of_int t.n;
    bits_sampled = false }

let hops_to (res : Dijkstra.result) dst =
  let rec go v acc =
    match res.Dijkstra.pred.(v) with -1 -> acc | p -> go p (acc + 1)
  in
  go dst 0

let scheme ?storage:st t =
  { Eval.name = "landmark-scale (TZ stretch-3)";
    storage = st;
    header_bits = 2 * Bits.id_bits t.n;
    prepare =
      (fun w ~src ~res ->
        if t.is_landmark.(src) then
          fun dst ->
            { Scheme.cost = res.Dijkstra.dist.(dst); hops = hops_to res dst }
        else begin
          let hub = t.home.(src) in
          (* The home row is only needed if some destination misses the
             bunch; charge it to the task's work when forced. *)
          let home_res =
            lazy
              (w.Eval.sssp <- w.Eval.sssp + 1;
               w.Eval.settled <- w.Eval.settled + t.n;
               Dijkstra.run t.graph hub)
          in
          fun dst ->
            let direct = res.Dijkstra.dist.(dst) in
            if direct < t.home_dist.(src) then
              { Scheme.cost = direct; hops = hops_to res dst }
            else begin
              let hr = Lazy.force home_res in
              { Scheme.cost = res.Dijkstra.dist.(hub) +. hr.Dijkstra.dist.(dst);
                hops = hops_to res hub + hops_to hr dst }
            end
        end) }
