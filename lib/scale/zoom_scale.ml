module Graph = Cr_metric.Graph
module Bits = Cr_metric.Bits
module Bounded = Cr_metric.Bounded
module Scheme = Cr_sim.Scheme
module Splitmix = Cr_graphgen.Splitmix
module Pool = Cr_par.Pool

type t = {
  nets : Nets.t;
  graph : Graph.t;
  n : int;
  epsilon : float;
  eps_eff : float;
}

let build ?obs ?levels oracle ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Zoom_scale.build: epsilon must be in (0, 1)";
  let nets = Nets.build ?obs ?levels oracle in
  { nets;
    graph = Oracle.graph oracle;
    n = Graph.n (Oracle.graph oracle);
    epsilon;
    eps_eff = Float.min epsilon 0.4 }

let nets t = t.nets
let epsilon t = t.epsilon
let eps_eff t = t.eps_eff

let search_radius t i = Float.pow 2.0 (float_of_int i) /. t.eps_eff

let stretch_ceiling t =
  let e = t.eps_eff in
  3.0 +. (((12.0 *. e) +. 4.0) /. (1.0 -. e))

let scheme_name = "zoom-scale (KRX zooming model)"

let prepare t w ~src ~res:_ =
  let n = t.n in
  let top = Nets.top_level t.nets in
  let b = Bounded.create n in
  (* Per-level hub searches, memoized for the whole source group: most
     destinations resolve at low levels, so high-level (near-full-graph)
     searches only run when some pair actually needs them. *)
  let hub_dist = Array.make (top + 1) [||] in
  let ensure i =
    if Array.length hub_dist.(i) = 0 then begin
      let y = Nets.nearest_net_point t.nets ~level:i src in
      let r = search_radius t i in
      w.Eval.bounded_runs <- w.Eval.bounded_runs + 1;
      w.Eval.settled <- w.Eval.settled + Bounded.run b t.graph ~src:y ~radius:r;
      let d = Array.make n infinity in
      Bounded.iter_settled b (fun v -> d.(v) <- Bounded.dist b v);
      hub_dist.(i) <- d
    end;
    hub_dist.(i)
  in
  fun dst ->
    let rec go i acc =
      let ball = ensure i in
      let climb =
        if i = 0 then 0.0
        else
          Nets.nearest_net_dist t.nets ~level:(i - 1) src
          +. Nets.nearest_net_dist t.nets ~level:i src
      in
      let acc = acc +. climb in
      let dyv = ball.(dst) in
      if Float.is_finite dyv then
        { Scheme.cost = acc +. (3.0 *. dyv); hops = i }
      else if i >= top then
        (* Unreachable by construction: the top search radius covers the
           graph (R_top >= 2^top >= 2 ecc(0)). *)
        invalid_arg "Zoom_scale: top-level search missed the destination"
      else go (i + 1) (acc +. (2.0 *. search_radius t i))
    in
    go 0 0.0

let storage_seed = 29
let storage_chunks = 64

(* Directory accounting: every node stores one nearest-net pointer per
   level; a level-i net point additionally stores 2 ids per node of its
   search ball B(y, R_i). *)
let storage ?(pool = Pool.sequential) ?(sample = 0) t =
  if sample < 0 then invalid_arg "Zoom_scale.storage: sample must be >= 0";
  let n = t.n in
  let top = Nets.top_level t.nets in
  let id = Bits.id_bits n in
  let base = (top + 1) * id in
  let chosen =
    if sample = 0 then Array.init n Fun.id
    else begin
      (* Node 0 (a member of every level) plus up to [sample] keyed draws
         per level: deterministic in the hierarchy alone. *)
      let marked = Array.make n false in
      marked.(0) <- true;
      let root = Splitmix.of_int storage_seed in
      for i = 1 to top do
        let net = Array.of_list (Nets.net t.nets i) in
        let key = Splitmix.mix root i in
        let draws = min sample (Array.length net) in
        for j = 0 to draws - 1 do
          marked.(net.(Splitmix.int_below (Splitmix.mix key j)
                         (Array.length net)))
            <- true
        done
      done;
      let acc = ref [] in
      for v = n - 1 downto 0 do
        if marked.(v) then acc := v :: !acc
      done;
      Array.of_list !acc
    end
  in
  let count = Array.length chosen in
  let chunk_results =
    Pool.parallel_init pool storage_chunks (fun c ->
        let lo = c * count / storage_chunks
        and hi = (c + 1) * count / storage_chunks in
        let b = Bounded.create n in
        let bits = Array.make (max 0 (hi - lo)) 0 in
        let settled = ref 0 in
        for i = lo to hi - 1 do
          let v = chosen.(i) in
          let total = ref base in
          for level = 1 to top do
            if Nets.mem t.nets ~level v then begin
              let r = search_radius t level in
              let s = Bounded.run b t.graph ~src:v ~radius:r in
              settled := !settled + s;
              total := !total + (2 * id * s)
            end
          done;
          (* Level 0: every node is a net point; its ball is B(v, R_0). *)
          let s0 = Bounded.run b t.graph ~src:v ~radius:(search_radius t 0) in
          settled := !settled + s0;
          total := !total + (2 * id * s0);
          bits.(i - lo) <- !total
        done;
        (bits, !settled))
  in
  let max_bits = ref 0 and sum = ref 0.0 and settled = ref 0 in
  Array.iter
    (fun (bits, s) ->
      Array.iter
        (fun bv ->
          if bv > !max_bits then max_bits := bv;
          sum := !sum +. float_of_int bv)
        bits;
      settled := !settled + s)
    chunk_results;
  ( { Eval.bits_max = !max_bits;
      bits_avg = (if count = 0 then 0.0 else !sum /. float_of_int count);
      bits_sampled = sample > 0 },
    !settled )

let scheme ?storage:st t =
  { Eval.name = scheme_name;
    storage = st;
    header_bits = 3 * Bits.id_bits t.n;
    prepare = prepare t }
