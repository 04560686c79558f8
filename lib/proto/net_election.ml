module Graph = Cr_metric.Graph

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
   distance and seed-ness per origin (strictly within r), as dense rows
   indexed by origin id; infinity means not heard. *)
type hello = Hello of { origin : int; seed : bool; traveled : float }

let measure_hello g =
  let u = Wire.universe (Graph.n g) in
  fun (Hello { origin; seed; traveled }) ->
    Wire.node u origin + Wire.bool seed + Wire.float traveled

type known = {
  dist : float array;
  seed : Bytes.t;  (* '\001' at a seed origin *)
}

let in_range known o = known.dist.(o) < infinity
let is_seed_origin known o = Bytes.get known.seed o <> '\000'

let discovery_phase g ~label ~r ~is_seed ~runner ~max_messages =
  let n = Graph.n g in
  let handler (actions : hello Network.actions) ~self known
      (Hello { origin; seed; traveled }) =
    if traveled < r && traveled < known.dist.(origin) then begin
      known.dist.(origin) <- traveled;
      if seed then Bytes.set known.seed origin '\001';
      (* a loop over the rows, not [Graph.iter_neighbors]: no closure per
         delivery; descending slots keep its send order *)
      let ids = Graph.row_ids g self and wts = Graph.row_weights g self in
      for i = Graph.degree g self - 1 downto 0 do
        if traveled +. wts.(i) < r then
          actions.Network.send ids.(i)
            (Hello { origin; seed; traveled = traveled +. wts.(i) })
      done
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
      ~init:(fun _ ->
        { dist = Array.make n infinity; seed = Bytes.make n '\000' })
      ~handler ~kickoff ~max_messages
  in
  (* self-knowledge is implicit *)
  Array.iteri (fun v k -> k.dist.(v) <- infinity) known;
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
  seen : float array;
      (* best traveled per origin, infinity until its decision arrives;
         also the distance of the decision heard from it *)
  verdict_in : Bytes.t;  (* '\001' at an origin whose decision is V_in *)
  mutable pending : int;  (* smaller-id non-seeds in range not yet heard *)
  mutable heard_in : bool;  (* some decision heard is V_in *)
}

let election_phase g ~label ~r ~known ~is_seed ~runner ~max_messages =
  let n = Graph.n g in
  (* The in-range id sets are static after phase 1, so the wait-for-smaller
     predicate is precomputed per node and maintained as an O(1) counter:
     re-folding [known]/[heard] per delivered message turned the election
     quadratic per delivery (minutes on grid-32x32). Seeds are already
     members: a non-seed must wait only for non-seed smaller ids (seeds
     block it outright, at any id). *)
  let seed_in_range = Array.make n false in
  let smaller_count = Array.make n 0 in
  Array.iteri
    (fun v k ->
      for o = 0 to n - 1 do
        if in_range k o then
          if is_seed_origin k o then seed_in_range.(v) <- true
          else if o < v then smaller_count.(v) <- smaller_count.(v) + 1
      done)
    known;
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
  let handler (actions : decision Network.actions) ~self state = function
    | Check ->
      try_decide actions self state;
      state
    | Decision { origin; verdict; traveled } ->
      let best = state.seen.(origin) in
      if traveled < r && traveled < best then begin
        state.seen.(origin) <- traveled;
        (* a node floods exactly one verdict, so only an origin's first
           arrival is news; a later one only shortens its distance *)
        if not (best < infinity) then begin
          if verdict = V_in then begin
            Bytes.set state.verdict_in origin '\001';
            state.heard_in <- true
          end;
          let k = known.(self) in
          if
            in_range k origin
            && (not (is_seed_origin k origin))
            && origin < self
          then state.pending <- state.pending - 1
        end;
        let ids = Graph.row_ids g self and wts = Graph.row_weights g self in
        for i = Graph.degree g self - 1 downto 0 do
          if traveled +. wts.(i) < r then
            actions.Network.send ids.(i)
              (Decision { origin; verdict; traveled = traveled +. wts.(i) })
        done
      end;
      try_decide actions self state;
      state
  in
  let kickoff = List.init n (fun v -> (v, Check)) in
  runner.Network.execute ~measure:(measure_decision g) g
    ~protocol:(label ^ ".election")
    ~init:(fun v ->
      { status = None;
        seen = Array.make n infinity;
        verdict_in = Bytes.make n '\000';
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
        else begin
          (* keep-first over ascending ids: equal distances tie-break
             toward the least member id *)
          let best = ref (-1) in
          for o = 0 to n - 1 do
            if
              Bytes.get s.verdict_in o <> '\000'
              && (!best < 0 || s.seen.(o) < s.seen.(!best))
            then best := o
          done;
          if !best < 0 then None else Some (!best, s.seen.(!best))
        end)
      states
  in
  { net = !net_members; status; nearest_in; discovery; election }
