module Graph = Cr_metric.Graph
module Tbl = Cr_metric.Tbl

type status =
  | In
  | Out

type result = {
  net : int list;
  status : status array;
  nearest_in : (int * float) option array;
  discovery : Network.stats;
  election : Network.stats;
}

(* Phase 1: budgeted flooding of ids (with a seed flag). State: best known
   distance and seed-ness per origin (strictly within r). *)
type hello = Hello of { origin : int; seed : bool; traveled : float }

let measure_hello g =
  let u = Wire.universe (Graph.n g) in
  fun (Hello { origin; seed; traveled }) ->
    Wire.node u origin + Wire.bool seed + Wire.float traveled

let discovery_phase g ~label ~r ~is_seed ~runner ~max_messages =
  let n = Graph.n g in
  let handler (actions : hello Network.actions) ~self known
      (Hello { origin; seed; traveled }) =
    let best = Hashtbl.find_opt known origin in
    if
      traveled < r
      && (match best with None -> true | Some (_, d) -> traveled < d)
    then begin
      Hashtbl.replace known origin (seed, traveled);
      Graph.iter_neighbors g self (fun v w ->
          if traveled +. w < r then
            actions.Network.send v
              (Hello { origin; seed; traveled = traveled +. w }))
    end;
    known
  in
  let kickoff =
    List.init n (fun v ->
        (v, Hello { origin = v; seed = is_seed v; traveled = 0.0 }))
  in
  let known, stats =
    runner.Network.execute ~measure:(measure_hello g) g
      ~protocol:(label ^ ".discovery")
      ~init:(fun _ : (int, bool * float) Hashtbl.t -> Hashtbl.create 8)
      ~handler ~kickoff ~max_messages
  in
  Array.iteri (fun v tbl -> Hashtbl.remove tbl v) known;
  (* self-knowledge is implicit *)
  (known, stats)

(* Phase 2: decisions flood within the same radius. *)
type verdict =
  | V_in
  | V_out

type decision =
  | Check
  | Decision of { origin : int; verdict : verdict; traveled : float }

let measure_decision g =
  let u = Wire.universe (Graph.n g) in
  function
  | Check -> Wire.tag ~cases:2 0
  | Decision { origin; verdict; traveled } ->
    Wire.tag ~cases:2 1 + Wire.node u origin + Wire.bool (verdict = V_in)
    + Wire.float traveled

type node_state = {
  mutable status : status option;
  heard : (int, verdict * float) Hashtbl.t;  (* decisions, best distance *)
  seen : (int, float) Hashtbl.t;  (* flood dedup: best traveled per origin *)
  mutable pending : int;  (* smaller-id non-seeds in range not yet heard *)
  mutable heard_in : bool;  (* some decision in [heard] is V_in *)
}

let election_phase g ~label ~r ~known ~is_seed ~runner ~max_messages =
  let n = Graph.n g in
  (* The in-range id sets are static after phase 1, so the wait-for-smaller
     predicate is precomputed per node and maintained as an O(1) counter:
     re-folding [known]/[heard] per delivered message turned the election
     quadratic per delivery (minutes on grid-32x32). Seeds are already
     members: a non-seed must wait only for non-seed smaller ids (seeds
     block it outright, at any id). *)
  let seed_in_range =
    Array.init n (fun v ->
        Tbl.fold_sorted ~cmp:Int.compare
          (fun _ (seed, _) acc -> acc || seed)
          known.(v) false)
  in
  let smaller_count =
    Array.init n (fun v ->
        Tbl.fold_sorted ~cmp:Int.compare
          (fun o (seed, _) acc ->
            if (not seed) && o < v then acc + 1 else acc)
          known.(v) 0)
  in
  let flood_own (actions : decision Network.actions) self verdict =
    Graph.iter_neighbors g self (fun v w ->
        if w < r then
          actions.Network.send v
            (Decision { origin = self; verdict; traveled = w }))
  in
  let try_decide actions self state =
    if state.status = None then begin
      if is_seed self then begin
        state.status <- Some In;
        flood_own actions self V_in
      end
      else if seed_in_range.(self) || state.heard_in then begin
        state.status <- Some Out;
        flood_own actions self V_out
      end
      else if state.pending = 0 then begin
        state.status <- Some In;
        flood_own actions self V_in
      end
    end
  in
  let record_heard self state origin verdict traveled =
    match Hashtbl.find_opt state.heard origin with
    | Some (_, d) ->
      (* a node floods exactly one verdict; only the distance can improve *)
      if traveled < d then Hashtbl.replace state.heard origin (verdict, traveled)
    | None ->
      Hashtbl.replace state.heard origin (verdict, traveled);
      if verdict = V_in then state.heard_in <- true;
      (match Hashtbl.find_opt known.(self) origin with
      | Some (false, _) when origin < self -> state.pending <- state.pending - 1
      | _ -> ())
  in
  let handler (actions : decision Network.actions) ~self state = function
    | Check ->
      try_decide actions self state;
      state
    | Decision { origin; verdict; traveled } ->
      let best = Hashtbl.find_opt state.seen origin in
      if traveled < r && (best = None || traveled < Option.get best) then begin
        Hashtbl.replace state.seen origin traveled;
        record_heard self state origin verdict traveled;
        Graph.iter_neighbors g self (fun v w ->
            if traveled +. w < r then
              actions.Network.send v
                (Decision { origin; verdict; traveled = traveled +. w }))
      end;
      try_decide actions self state;
      state
  in
  let kickoff = List.init n (fun v -> (v, Check)) in
  runner.Network.execute ~measure:(measure_decision g) g
    ~protocol:(label ^ ".election")
    ~init:(fun v ->
      { status = None;
        heard = Hashtbl.create 8;
        seen = Hashtbl.create 8;
        pending = smaller_count.(v);
        heard_in = false })
    ~handler ~kickoff ~max_messages

let run ?via ?(seeds = []) ?(label = "net_election") g ~r =
  if not (r > 0.0) then invalid_arg "Net_election.run: r must be positive";
  let n = Graph.n g in
  let max_messages = 1000 + (200 * n * n) in
  let runner = match via with Some rn -> rn | None -> Network.local () in
  let seed_flags = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Net_election.run: seed out of range";
      seed_flags.(s) <- true)
    seeds;
  let is_seed v = seed_flags.(v) in
  let known, discovery =
    discovery_phase g ~label ~r ~is_seed ~runner ~max_messages
  in
  let states, election =
    election_phase g ~label ~r ~known ~is_seed ~runner ~max_messages
  in
  let status =
    Array.mapi
      (fun v s ->
        match s.status with
        | Some st -> st
        | None ->
          raise
            (Network.Protocol_error
               { protocol = label;
                 node = Some v;
                 stats = election;
                 detail = "protocol did not quiesce" }))
      states
  in
  let net_members = ref [] in
  for v = n - 1 downto 0 do
    if status.(v) = In then net_members := v :: !net_members
  done;
  let nearest_in =
    Array.mapi
      (fun v s ->
        if status.(v) = In then Some (v, 0.0)
        else
          (* keep-first over ascending ids: equal distances tie-break
             toward the least member id, independent of hash order *)
          Tbl.fold_sorted ~cmp:Int.compare
            (fun o (verdict, d) acc ->
              if verdict = V_in then
                match acc with
                | Some (_, best) when best <= d -> acc
                | _ -> Some (o, d)
              else acc)
            s.heard None)
      states
  in
  { net = !net_members; status; nearest_in; discovery; election }
