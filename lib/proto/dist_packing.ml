module Graph = Cr_metric.Graph
module Tbl = Cr_metric.Tbl

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
  c_r : float;
  mutable c_dist : float;
  mutable c_via : int;  (* neighbor toward the candidate; -1 at the center *)
}

type a_state = {
  cands : (int, cand_info) Hashtbl.t;
  witnessed : (int * int, unit) Hashtbl.t;  (* conflict pairs reported here *)
  conflicts : (int, float) Hashtbl.t;  (* self as candidate: partner -> r *)
}

type a_msg =
  | Cand of { origin : int; r : float; traveled : float; from : int }
  | Note of { target : int; partner : int; partner_r : float }

let measure_a g =
  let n = Graph.n g in
  fun msg ->
    Wire.measure (fun w ->
        match msg with
        | Cand { origin; r; traveled; from } ->
          Wire.push_tag w ~cases:2 0;
          Wire.push_node w ~n origin;
          Wire.push_float w r;
          Wire.push_float w traveled;
          Wire.push_opt_node w ~n from
        | Note { target; partner; partner_r } ->
          Wire.push_tag w ~cases:2 1;
          Wire.push_node w ~n target;
          Wire.push_node w ~n partner;
          Wire.push_float w partner_r)

let discovery_phase g ~radius ~runner ~max_messages =
  let n = Graph.n g in
  let protocol = "dist_packing.discovery" in
  let delivered = ref 0 in
  let deliver_note (actions : a_msg Network.actions) ~self state ~target
      ~partner ~partner_r =
    if target = self then Hashtbl.replace state.conflicts partner partner_r
    else
      match Hashtbl.find_opt state.cands target with
      | Some info ->
        actions.Network.send info.c_via (Note { target; partner; partner_r })
      | None ->
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
      let improved =
        match Hashtbl.find_opt state.cands origin with
        | Some info ->
          if traveled < info.c_dist then begin
            info.c_dist <- traveled;
            info.c_via <- from;
            true
          end
          else false
        | None ->
          Hashtbl.replace state.cands origin
            { c_r = r; c_dist = traveled; c_via = from };
          true
      in
      if improved && traveled <= r then begin
        Graph.iter_neighbors g self (fun v w ->
            if traveled +. w <= r then
              actions.Network.send v
                (Cand { origin; r; traveled = traveled +. w; from = self }));
        (* witness rule: this node now sees [origin]; report every
           coexisting pair once, to both centers (ascending partner id, so
           note traffic is independent of hash order) *)
        Tbl.iter_sorted ~cmp:Int.compare
          (fun other (info : cand_info) ->
            if other <> origin && not (Hashtbl.mem state.witnessed (origin, other))
            then begin
              Hashtbl.replace state.witnessed (origin, other) ();
              Hashtbl.replace state.witnessed (other, origin) ();
              deliver_note actions ~self state ~target:origin ~partner:other
                ~partner_r:info.c_r;
              deliver_note actions ~self state ~target:other ~partner:origin
                ~partner_r:r
            end)
          state.cands
      end;
      state
  in
  let kickoff =
    List.init n (fun u ->
        (u, Cand { origin = u; r = radius.(u); traveled = 0.0; from = -1 }))
  in
  runner.Network.execute ~measure:(measure_a g) g ~protocol
    ~init:(fun _ ->
      { cands = Hashtbl.create 8;
        witnessed = Hashtbl.create 8;
        conflicts = Hashtbl.create 8 })
    ~handler ~kickoff ~max_messages

(* ---- phase B: wait-for-smaller election over the conflict graph ---- *)

type b_state = {
  mutable status : bool option;  (* Some true = ball accepted *)
  heard : (int, bool) Hashtbl.t;
  seen : (int, float) Hashtbl.t;  (* decision flood dedupe *)
  relayed : (int * int, unit) Hashtbl.t;
}

type b_msg =
  | Kick
  | Decision of { origin : int; r : float; verdict : bool; traveled : float;
                  from : int }
  | Relay of { target : int; partner : int; verdict : bool }

let measure_b g =
  let n = Graph.n g in
  fun msg ->
    Wire.measure (fun w ->
        match msg with
        | Kick -> Wire.push_tag w ~cases:3 0
        | Decision { origin; r; verdict; traveled; from } ->
          Wire.push_tag w ~cases:3 1;
          Wire.push_node w ~n origin;
          Wire.push_float w r;
          Wire.push_bool w verdict;
          Wire.push_float w traveled;
          Wire.push_node w ~n from
        | Relay { target; partner; verdict } ->
          Wire.push_tag w ~cases:3 2;
          Wire.push_node w ~n target;
          Wire.push_node w ~n partner;
          Wire.push_bool w verdict)

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
  let rec try_decide actions self state =
    if state.status = None then begin
      let mine = (radius.(self), self) in
      let rejected =
        Tbl.fold_sorted ~cmp:Int.compare
          (fun _ verdict acc -> acc || verdict)
          state.heard false
      in
      let decide verdict =
        state.status <- Some verdict;
        Hashtbl.replace state.seen self 0.0;  (* own flood echoes are stale *)
        flood_decision actions self verdict;
        (* The decider is itself a witness for every candidate whose ball
           covers it; a far partner whose flood radius dwarfs ours would
           otherwise never hear from us (the self-witness case). *)
        Tbl.iter_sorted ~cmp:Int.compare
          (fun other (_ : cand_info) ->
            if other <> self && not (Hashtbl.mem state.relayed (self, other))
            then begin
              Hashtbl.replace state.relayed (self, other) ();
              deliver_relay actions ~self state ~target:other ~partner:self
                ~verdict
            end)
          a_states.(self).cands
      in
      if rejected then decide false
      else begin
        let pending =
          Tbl.fold_sorted ~cmp:Int.compare
            (fun partner partner_r acc ->
              acc
              || (precedes (partner_r, partner) mine
                 && not (Hashtbl.mem state.heard partner)))
            a_states.(self).conflicts false
        in
        if not pending then decide true
      end
    end
  and deliver_relay (actions : b_msg Network.actions) ~self state ~target
      ~partner ~verdict =
    if target = self then begin
      if not (Hashtbl.mem state.heard partner) then
        Hashtbl.replace state.heard partner verdict;
      try_decide actions self state
    end
    else
      match Hashtbl.find_opt a_states.(self).cands target with
      | Some info ->
        actions.Network.send info.c_via (Relay { target; partner; verdict })
      | None ->
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
      let stale =
        match Hashtbl.find_opt state.seen origin with
        | Some d -> traveled >= d
        | None -> false
      in
      if (not stale) && traveled <= r then begin
        Hashtbl.replace state.seen origin traveled;
        Graph.iter_neighbors g self (fun v w ->
            if traveled +. w <= r then
              actions.Network.send v
                (Decision
                   { origin; r; verdict; traveled = traveled +. w;
                     from = self }));
        (* a node inside the decider's ball may itself be the conflict
           partner: record the verdict directly *)
        if Hashtbl.mem a_states.(self).conflicts origin then begin
          if not (Hashtbl.mem state.heard origin) then
            Hashtbl.replace state.heard origin verdict;
          try_decide actions self state
        end;
        (* witness relay to every conflict partner seen in phase A *)
        Tbl.iter_sorted ~cmp:Int.compare
          (fun other (_ : cand_info) ->
            if other <> origin && not (Hashtbl.mem state.relayed (origin, other))
            then begin
              Hashtbl.replace state.relayed (origin, other) ();
              deliver_relay actions ~self state ~target:other ~partner:origin
                ~verdict
            end)
          a_states.(self).cands
      end;
      state
  in
  let kickoff = List.init n (fun u -> (u, Kick)) in
  let states, stats =
    runner.Network.execute ~measure:(measure_b g) g ~protocol
      ~init:(fun _ ->
        { status = None; heard = Hashtbl.create 8; seen = Hashtbl.create 8;
          relayed = Hashtbl.create 8 })
      ~handler ~kickoff ~max_messages
  in
  let accepted = ref [] in
  for u = n - 1 downto 0 do
    match states.(u).status with
    | Some true -> accepted := u :: !accepted
    | Some false -> ()
    | None ->
      let pending =
        Tbl.fold_sorted ~cmp:Int.compare
          (fun partner partner_r acc ->
            if
              precedes (partner_r, partner) (radius.(u), u)
              && not (Hashtbl.mem states.(u).heard partner)
            then partner :: acc
            else acc)
          a_states.(u).conflicts []
      in
      raise
        (Network.Protocol_error
           { protocol = "dist_packing";
             node = Some u;
             stats;
             detail =
               Printf.sprintf "node undecided, waiting on [%s]"
                 (String.concat ";" (List.map string_of_int pending)) })
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
