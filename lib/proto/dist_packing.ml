module Graph = Cr_metric.Graph

type result = {
  accepted : int list;
  radius : float array;
  discovery : Network.stats;
  election : Network.stats;
}

(* (radius, id) lexicographic: the greedy scan order. *)
let precedes (r1, id1) (r2, id2) = r1 < r2 || (r1 = r2 && id1 < id2)

(* A note or relay travels back to its target along the [c_via] pointers
   that the target's own flood left at every node it reached, and only a
   node inside that flood sends one; so each hop finds its target and
   this error is unreachable while those invariants hold. *)
let lost_target ~protocol ~self ~target ~delivered ~now =
  raise
    (Network.Protocol_error
       { protocol;
         node = Some self;
         stats = { Network.messages = delivered; makespan = now };
         detail =
           Printf.sprintf "no flood pointer back to candidate %d" target })

(* ---- phase A: candidate floods and witness conflict discovery ---- *)

type cand_info = {
  c_id : int;
  c_r : float;
  mutable c_dist : float;
  mutable c_via : int;  (* neighbor toward the candidate; -1 at the center *)
}

let no_cand = { c_id = -1; c_r = 0.0; c_dist = 0.0; c_via = -1 }

type a_state = {
  mutable cands : cand_info array;  (* the first [count], ascending c_id *)
  mutable count : int;
  conflicts : Bytes.t;
      (* self as candidate: '\001' at each conflict partner, whose radius
         is [radius.(partner)] *)
  mutable earlier : int;  (* conflict partners preceding self *)
}

let is_conflict st partner = Bytes.get st.conflicts partner <> '\000'

(* The slot of candidate [id] in [st.cands], or [-(slot + 1)] for the
   slot it would be inserted at. *)
let rec search_between cands id lo hi =
  if lo > hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = cands.(mid).c_id in
    if c = id then mid
    else if c < id then search_between cands id (mid + 1) hi
    else search_between cands id lo (mid - 1)

let search st id = search_between st.cands id 0 (st.count - 1)

let insert st slot info =
  if st.count = Array.length st.cands then begin
    let bigger = Array.make (2 * st.count) no_cand in
    Array.blit st.cands 0 bigger 0 st.count;
    st.cands <- bigger
  end;
  Array.blit st.cands slot st.cands (slot + 1) (st.count - slot);
  st.cands.(slot) <- info;
  st.count <- st.count + 1

type a_msg =
  | Cand of { origin : int; r : float; traveled : float; from : int }
  | Note of { target : int; partner : int; partner_r : float }

let measure_a g =
  let u = Wire.universe (Graph.n g) in
  function
  | Cand { origin; r; traveled; from } ->
    Wire.tag ~cases:2 0 + Wire.node u origin + Wire.float r
    + Wire.float traveled + Wire.opt_node u from
  | Note { target; partner; partner_r } ->
    Wire.tag ~cases:2 1 + Wire.node u target + Wire.node u partner
    + Wire.float partner_r

let discovery_phase g ~radius ~runner ~max_messages =
  let n = Graph.n g in
  let protocol = "dist_packing.discovery" in
  let delivered = ref 0 in
  let deliver_note (actions : a_msg Network.actions) ~self state ~target
      ~partner ~partner_r =
    if target = self then begin
      if not (is_conflict state partner) then begin
        Bytes.set state.conflicts partner '\001';
        if precedes (partner_r, partner) (radius.(self), self) then
          state.earlier <- state.earlier + 1
      end
    end
    else
      let slot = search state target in
      if slot >= 0 then
        actions.Network.send state.cands.(slot).c_via
          (Note { target; partner; partner_r })
      else
        lost_target ~protocol ~self ~target ~delivered:!delivered
          ~now:actions.Network.now
  in
  let handler (actions : a_msg Network.actions) ~self state msg =
    incr delivered;
    match msg with
    | Note { target; partner; partner_r } ->
      deliver_note actions ~self state ~target ~partner ~partner_r;
      state
    | Cand { origin; r; traveled; from } ->
      let slot = search state origin in
      let first = slot < 0 in
      let improved =
        if first then begin
          insert state (-slot - 1)
            { c_id = origin; c_r = r; c_dist = traveled; c_via = from };
          true
        end
        else
          let info = state.cands.(slot) in
          if traveled < info.c_dist then begin
            info.c_dist <- traveled;
            info.c_via <- from;
            true
          end
          else false
      in
      if improved && traveled <= r then begin
        (* descending slots: [Graph.iter_neighbors]'s send order, with no
           closure per delivery *)
        let ids = Graph.row_ids g self and wts = Graph.row_weights g self in
        for i = Graph.degree g self - 1 downto 0 do
          if traveled +. wts.(i) <= r then
            actions.Network.send ids.(i)
              (Cand { origin; r; traveled = traveled +. wts.(i); from = self })
        done;
        (* witness rule: this node now sees [origin]; report every
           coexisting pair once, to both centers, in ascending partner
           id. Only a first arrival can: every pair of the candidates
           already here was reported when the later of the two arrived,
           so an improving arrival finds none new. *)
        if first then
          for k = 0 to state.count - 1 do
            let other = state.cands.(k) in
            if other.c_id <> origin then begin
              deliver_note actions ~self state ~target:origin
                ~partner:other.c_id ~partner_r:other.c_r;
              deliver_note actions ~self state ~target:other.c_id
                ~partner:origin ~partner_r:r
            end
          done
      end;
      state
  in
  let kickoff =
    List.init n (fun u ->
        (u, Cand { origin = u; r = radius.(u); traveled = 0.0; from = -1 }))
  in
  runner.Network.execute ~measure:(measure_a g) g ~protocol
    ~init:(fun _ ->
      { cands = Array.make 8 no_cand;
        count = 0;
        conflicts = Bytes.make n '\000';
        earlier = 0 })
    ~handler ~kickoff ~max_messages

(* ---- phase B: wait-for-smaller election over the conflict graph ---- *)

type b_state = {
  mutable status : bool option;  (* Some true = ball accepted *)
  heard : Bytes.t;  (* '\001' at each partner whose verdict arrived *)
  mutable heard_true : bool;  (* one of them accepted *)
  mutable pending : int;  (* preceding conflict partners not yet heard *)
  seen : float array;
      (* decision flood dedupe: best traveled per origin, infinity until
         its first arrival *)
}

type b_msg =
  | Kick
  | Decision of { origin : int; r : float; verdict : bool; traveled : float;
                  from : int }
  | Relay of { target : int; partner : int; verdict : bool }

let measure_b g =
  let u = Wire.universe (Graph.n g) in
  function
  | Kick -> Wire.tag ~cases:3 0
  | Decision { origin; r; verdict; traveled; from } ->
    Wire.tag ~cases:3 1 + Wire.node u origin + Wire.float r
    + Wire.bool verdict + Wire.float traveled + Wire.node u from
  | Relay { target; partner; verdict } ->
    Wire.tag ~cases:3 2 + Wire.node u target + Wire.node u partner
    + Wire.bool verdict

let election_phase g ~radius ~a_states ~runner ~max_messages =
  let n = Graph.n g in
  let protocol = "dist_packing.election" in
  let delivered = ref 0 in
  let flood_decision (actions : b_msg Network.actions) self verdict =
    let r = radius.(self) in
    Graph.iter_neighbors g self (fun v w ->
        if w <= r then
          actions.Network.send v
            (Decision { origin = self; r; verdict; traveled = w; from = self }))
  in
  (* The candidates a node saw in phase A, fixed from here on, are the
     partners it relays a decision to: ascending, all but [origin]. *)
  let rec relay_all actions ~self state ~origin ~verdict =
    let a = a_states.(self) in
    for k = 0 to a.count - 1 do
      let other = a.cands.(k).c_id in
      if other <> origin then
        deliver_relay actions ~self state ~target:other ~partner:origin
          ~verdict
    done
  and hear actions self state partner verdict =
    if Bytes.get state.heard partner = '\000' then begin
      Bytes.set state.heard partner '\001';
      if verdict then state.heard_true <- true;
      if
        is_conflict a_states.(self) partner
        && precedes (radius.(partner), partner) (radius.(self), self)
      then state.pending <- state.pending - 1
    end;
    try_decide actions self state
  and try_decide actions self state =
    if state.status = None then begin
      let decide verdict =
        state.status <- Some verdict;
        state.seen.(self) <- 0.0;  (* own flood echoes are stale *)
        flood_decision actions self verdict;
        (* The decider is itself a witness for every candidate whose ball
           covers it; a far partner whose flood radius dwarfs ours would
           otherwise never hear from us (the self-witness case). *)
        relay_all actions ~self state ~origin:self ~verdict
      in
      if state.heard_true then decide false
      else if state.pending = 0 then decide true
    end
  and deliver_relay (actions : b_msg Network.actions) ~self state ~target
      ~partner ~verdict =
    if target = self then hear actions self state partner verdict
    else
      let a = a_states.(self) in
      let slot = search a target in
      if slot >= 0 then
        actions.Network.send a.cands.(slot).c_via
          (Relay { target; partner; verdict })
      else
        lost_target ~protocol ~self ~target ~delivered:!delivered
          ~now:actions.Network.now
  in
  let handler (actions : b_msg Network.actions) ~self state msg =
    incr delivered;
    match msg with
    | Kick ->
      try_decide actions self state;
      state
    | Relay { target; partner; verdict } ->
      deliver_relay actions ~self state ~target ~partner ~verdict;
      state
    | Decision { origin; r; verdict; traveled; from = _ } ->
      let best = state.seen.(origin) in
      if traveled < best && traveled <= r then begin
        state.seen.(origin) <- traveled;
        let ids = Graph.row_ids g self and wts = Graph.row_weights g self in
        for i = Graph.degree g self - 1 downto 0 do
          if traveled +. wts.(i) <= r then
            actions.Network.send ids.(i)
              (Decision
                 { origin; r; verdict; traveled = traveled +. wts.(i);
                   from = self })
        done;
        (* a node inside the decider's ball may itself be the conflict
           partner: record the verdict directly *)
        if is_conflict a_states.(self) origin then
          hear actions self state origin verdict;
        (* witness relay to every conflict partner seen in phase A, on
           the first arrival only: the partners are fixed, so a later,
           shorter arrival would relay the same verdicts again *)
        if not (best < infinity) then
          relay_all actions ~self state ~origin ~verdict
      end;
      state
  in
  let kickoff = List.init n (fun u -> (u, Kick)) in
  let states, stats =
    runner.Network.execute ~measure:(measure_b g) g ~protocol
      ~init:(fun u ->
        { status = None; heard = Bytes.make n '\000'; heard_true = false;
          pending = a_states.(u).earlier; seen = Array.make n infinity })
      ~handler ~kickoff ~max_messages
  in
  let accepted = ref [] in
  for u = n - 1 downto 0 do
    match states.(u).status with
    | Some true -> accepted := u :: !accepted
    | Some false -> ()
    | None ->
      (* descending, as the partners have always been listed *)
      let pending = ref [] in
      for partner = 0 to n - 1 do
        if
          is_conflict a_states.(u) partner
          && precedes (radius.(partner), partner) (radius.(u), u)
          && Bytes.get states.(u).heard partner = '\000'
        then pending := partner :: !pending
      done;
      raise
        (Network.Protocol_error
           { protocol = "dist_packing";
             node = Some u;
             stats;
             detail =
               Printf.sprintf "node undecided, waiting on [%s]"
                 (String.concat ";" (List.map string_of_int !pending)) })
  done;
  (!accepted, stats)

let run ?via g ~distances ~j =
  let n = Graph.n g in
  if j < 0 || 1 lsl j > n then
    invalid_arg "Dist_packing.run: 2^j must be at most n";
  let max_messages = 1000 + (500 * n * n) in
  let runner = match via with Some r -> r | None -> Network.local () in
  let radius =
    Array.init n (fun u -> Dist_radii.radius_of_size distances u (1 lsl j))
  in
  let a_states, discovery = discovery_phase g ~radius ~runner ~max_messages in
  let accepted, election =
    election_phase g ~radius ~a_states ~runner ~max_messages
  in
  { accepted; radius; discovery; election }
