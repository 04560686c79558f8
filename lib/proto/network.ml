module Graph = Cr_metric.Graph
module Trace = Cr_obs.Trace
module Cost = Cr_obs.Cost

(* [src] codes of the event heap below: a sending neighbour is [>= 0]. An
   external message is [-1], the source [Cost.record] expects for
   out-of-band traffic. *)
let external_src = -1
let timer_src = -2

type fault_hooks = {
  copies : src:int -> dst:int -> delay:float -> float list;
  down_until : node:int -> time:float -> float option;
}

type fault_counts = {
  sent_dropped : int;
  sent_duplicated : int;
  sent_delayed : int;
  crash_lost : int;
  timers_deferred : int;
}

let no_fault_counts =
  { sent_dropped = 0; sent_duplicated = 0; sent_delayed = 0; crash_lost = 0;
    timers_deferred = 0 }

(* Slots of [clock]: floats live in a float array, because a float field
   of a mixed record is boxed again on every write. *)
let now_i = 0
let makespan_i = 1

(* The event heap is a struct of arrays: entry [i] delivers [ev_msg.(i)]
   to [ev_dst.(i)] at [ev_time.(i)], sent from [ev_src.(i)] (a neighbour,
   [external_src] or [timer_src]); [ev_seq.(i)] is its stamp from the
   global enqueue counter. Heap order is (time, seq), a total order, so
   the pop sequence is the sorted one whatever the heap's shape. Slots at
   [size] and above hold [None]: a delivered message is never kept
   reachable. [round_at] / [round_count] are run-length (round,
   deliveries) pairs: every enqueue is at or after the clock, so
   deliveries pop in nondecreasing time, rounds arrive sorted, and the
   arrays grow with the number of distinct rounds, not with the largest
   round. *)
type ('msg, 'state) t = {
  graph : Graph.t;
  states : 'state array;
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_dst : int array;
  mutable ev_src : int array;
  mutable ev_msg : 'msg option array;
  mutable size : int;
  clock : float array;  (* [now_i], [makespan_i] *)
  jitter : (Bytes.t * float) option;  (* splitmix64 state, magnitude *)
  hooks : fault_hooks option;
  obs : Trace.context;
  cost : Cost.t;
  measure : ('msg -> int) option;
  deliveries : int array;  (* messages delivered per node *)
  mutable round_at : int array;
  mutable round_count : int array;
  mutable round_runs : int;
  mutable seq : int;
  mutable self : int;  (* destination of the event being delivered *)
  mutable from : int;  (* its [ev_src] *)
  mutable messages : int;
  mutable timers : int;
  mutable faults : fault_counts;
}

type 'msg actions = {
  mutable now : float;
  send : int -> 'msg -> unit;
  timer : delay:float -> 'msg -> unit;
}

type stats = {
  messages : int;
  makespan : float;
}

type protocol_error = {
  protocol : string;
  node : int option;
  stats : stats;
  detail : string;
}

exception Protocol_error of protocol_error

let error_message e =
  Printf.sprintf "%s:%s %s (after %d deliveries, makespan %g)" e.protocol
    (match e.node with Some v -> Printf.sprintf " node %d:" v | None -> "")
    e.detail e.stats.messages e.stats.makespan

let () =
  Printexc.register_printer (function
    | Protocol_error e -> Some ("Protocol_error: " ^ error_message e)
    | _ -> None)

let initial_capacity = 16

let create ?obs ?jitter ?faults ?(cost = Cost.null) ?measure graph ~init =
  let n = Graph.n graph in
  { graph;
    states = Array.init n init;
    ev_time = Array.make initial_capacity 0.0;
    ev_seq = Array.make initial_capacity 0;
    ev_dst = Array.make initial_capacity 0;
    ev_src = Array.make initial_capacity 0;
    ev_msg = Array.make initial_capacity None;
    size = 0;
    clock = Array.make 2 0.0;
    jitter =
      Option.map
        (fun (seed, magnitude) ->
          if magnitude < 0.0 then
            invalid_arg "Network.create: negative jitter magnitude";
          let state = Bytes.create 8 in
          Bytes.set_int64_le state 0 (Int64.of_int (seed + 1));
          (state, magnitude))
        jitter;
    hooks = faults;
    obs = Trace.resolve obs;
    cost;
    measure;
    deliveries = Array.make n 0;
    round_at = Array.make initial_capacity 0;
    round_count = Array.make initial_capacity 0;
    round_runs = 0;
    seq = 0;
    self = -1;
    from = external_src;
    messages = 0;
    timers = 0;
    faults = no_fault_counts }

(* One splitmix64 step of the jitter stream, scaled to a factor in
   [1, 1 + magnitude). Inlined so the int64 state and the float result
   stay unboxed. *)
let[@inline] perturb t delay =
  match t.jitter with
  | None -> delay
  | Some (state, magnitude) ->
    let z = Int64.add (Bytes.get_int64_le state 0) 0x9E3779B97F4A7C15L in
    Bytes.set_int64_le state 0 z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
    in
    delay *. (1.0 +. (magnitude *. u))

let state t v = t.states.(v)

let deliveries t = Array.copy t.deliveries

let fault_counts t = t.faults

let timer_events t = t.timers

let round_histogram t =
  List.init t.round_runs (fun i -> (t.round_at.(i), t.round_count.(i)))

let count_round t round =
  let k = t.round_runs in
  if k > 0 && t.round_at.(k - 1) = round then
    t.round_count.(k - 1) <- t.round_count.(k - 1) + 1
  else begin
    if k = Array.length t.round_at then begin
      let at = Array.make (2 * k) 0 and count = Array.make (2 * k) 0 in
      Array.blit t.round_at 0 at 0 k;
      Array.blit t.round_count 0 count 0 k;
      t.round_at <- at;
      t.round_count <- count
    end;
    t.round_at.(k) <- round;
    t.round_count.(k) <- 1;
    t.round_runs <- k + 1
  end

let grow t =
  let size = t.size in
  let capacity = 2 * size in
  let time = Array.make capacity 0.0 in
  let seq = Array.make capacity 0 in
  let dst = Array.make capacity 0 in
  let src = Array.make capacity 0 in
  let msg = Array.make capacity None in
  Array.blit t.ev_time 0 time 0 size;
  Array.blit t.ev_seq 0 seq 0 size;
  Array.blit t.ev_dst 0 dst 0 size;
  Array.blit t.ev_src 0 src 0 size;
  Array.blit t.ev_msg 0 msg 0 size;
  t.ev_time <- time;
  t.ev_seq <- seq;
  t.ev_dst <- dst;
  t.ev_src <- src;
  t.ev_msg <- msg

(* Copies entry [i] into slot [j]. *)
let[@inline] move t i j =
  t.ev_time.(j) <- t.ev_time.(i);
  t.ev_seq.(j) <- t.ev_seq.(i);
  t.ev_dst.(j) <- t.ev_dst.(i);
  t.ev_src.(j) <- t.ev_src.(i);
  t.ev_msg.(j) <- t.ev_msg.(i)

(* Moves the entry at [i] up to its place. Sifts move a hole instead of
   swapping, and the entry's time stays in a local: nothing is boxed. *)
let sift_up t i =
  let time = t.ev_time.(i) and seq = t.ev_seq.(i) in
  let dst = t.ev_dst.(i) and src = t.ev_src.(i) and msg = t.ev_msg.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.ev_time.(parent) in
    if time < pt || (Float.equal time pt && seq < t.ev_seq.(parent)) then begin
      move t parent !i;
      i := parent
    end
    else moving := false
  done;
  t.ev_time.(!i) <- time;
  t.ev_seq.(!i) <- seq;
  t.ev_dst.(!i) <- dst;
  t.ev_src.(!i) <- src;
  t.ev_msg.(!i) <- msg

(* Every enqueue — sends (and their fault-injected duplicate copies),
   timers, injects — draws from the one global sequence counter at enqueue
   time, so the (delivery time, send order) tie-break is total and
   identical however a message entered the simulator. Inlined so that
   [time] is never boxed. *)
let[@inline] enqueue t ~time ~dst ~src msg =
  if t.size = Array.length t.ev_time then grow t;
  let i = t.size in
  t.size <- i + 1;
  t.ev_time.(i) <- time;
  t.ev_seq.(i) <- t.seq;
  t.ev_dst.(i) <- dst;
  t.ev_src.(i) <- src;
  t.ev_msg.(i) <- Some msg;
  t.seq <- t.seq + 1;
  sift_up t i

(* Removes the least entry: the clock moves to its time, [t.self] and
   [t.from] to its endpoints, and its payload is returned. The last entry
   fills the root's hole and sifts down. *)
let pop t =
  let msg = Option.get t.ev_msg.(0) in
  t.clock.(now_i) <- t.ev_time.(0);
  t.self <- t.ev_dst.(0);
  t.from <- t.ev_src.(0);
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = t.ev_time.(last) and seq = t.ev_seq.(last) in
    let dst = t.ev_dst.(last) and src = t.ev_src.(last) in
    let moved = t.ev_msg.(last) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= last then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (t.ev_time.(r) < t.ev_time.(l)
               || (Float.equal t.ev_time.(r) t.ev_time.(l)
                  && t.ev_seq.(r) < t.ev_seq.(l)))
          then r
          else l
        in
        let ct = t.ev_time.(c) in
        if ct < time || (Float.equal ct time && t.ev_seq.(c) < seq) then begin
          move t c !i;
          i := c
        end
        else moving := false
      end
    done;
    t.ev_time.(!i) <- time;
    t.ev_seq.(!i) <- seq;
    t.ev_dst.(!i) <- dst;
    t.ev_src.(!i) <- src;
    t.ev_msg.(!i) <- moved
  end;
  t.ev_msg.(last) <- None;
  msg

let inject t ~dst msg =
  enqueue t ~time:t.clock.(now_i) ~dst ~src:external_src msg

(* A send crosses the fault layer: the plan may drop the message, deliver
   extra copies, or inflate individual copy delays. Every surviving copy is
   sequenced immediately (send order), never at delivery time. *)
let faulted_send t hooks ~src ~dst ~delay msg =
  let delays = hooks.copies ~src ~dst ~delay in
  let copies = List.length delays in
  let f = t.faults in
  if copies = 0 then t.faults <- { f with sent_dropped = f.sent_dropped + 1 }
  else begin
    if copies > 1 then
      t.faults <-
        { t.faults with
          sent_duplicated = t.faults.sent_duplicated + copies - 1 };
    if List.exists (fun d -> d > delay) delays then
      t.faults <- { t.faults with sent_delayed = t.faults.sent_delayed + 1 };
    List.iter
      (fun d ->
        if d < delay then
          invalid_arg "Network: fault plan shrank a delivery delay";
        enqueue t ~time:(t.clock.(now_i) +. d) ~dst ~src msg)
      delays
  end

(* Whether the popped event reaches its node under the fault plan. A down
   node's timers and boot injections are deferred to its recovery, not
   lost: retransmission daemons and program starts survive a
   crash-recover. An edge message to a down node is lost; a hardened
   transport must retransmit it past the recovery. *)
let survives t hooks ~time ~dst ~src msg =
  match hooks.down_until ~node:dst ~time with
  | None -> true
  | Some recovery ->
    if src < 0 then begin
      t.faults <-
        { t.faults with timers_deferred = t.faults.timers_deferred + 1 };
      enqueue t ~time:(Float.max recovery time) ~dst ~src msg
    end
    else t.faults <- { t.faults with crash_lost = t.faults.crash_lost + 1 };
    false

let run ?(protocol = "network") (t : (_, _) t) ~handler ~max_messages =
  let budget_error dst =
    raise
      (Protocol_error
         { protocol;
           node = Some dst;
           stats =
             { messages = t.messages; makespan = t.clock.(makespan_i) };
           detail =
             Printf.sprintf "message budget exhausted (max %d)" max_messages })
  in
  (* One [actions] for the whole run: [send] and [timer] act for the node
     being handled, [t.self]. *)
  let send neighbor msg =
    let self = t.self in
    let slot = Graph.slot t.graph self neighbor in
    if slot < 0 then invalid_arg "Network.send: not a neighbor";
    let delay = perturb t (Graph.row_weights t.graph self).(slot) in
    match t.hooks with
    | None ->
      enqueue t ~time:(t.clock.(now_i) +. delay) ~dst:neighbor ~src:self msg
    | Some hooks -> faulted_send t hooks ~src:self ~dst:neighbor ~delay msg
  in
  let timer ~delay msg =
    if delay < 0.0 then invalid_arg "Network.timer: negative delay";
    enqueue t ~time:(t.clock.(now_i) +. delay) ~dst:t.self ~src:timer_src msg
  in
  let actions = { now = 0.0; send; timer } in
  while t.size > 0 do
    let msg = pop t in
    let time = t.clock.(now_i) in
    let dst = t.self and src = t.from in
    let deliverable =
      match t.hooks with
      | None -> true
      | Some hooks -> survives t hooks ~time ~dst ~src msg
    in
    if deliverable then begin
      if time > t.clock.(makespan_i) then t.clock.(makespan_i) <- time;
      if src = timer_src then begin
        t.timers <- t.timers + 1;
        if t.messages + t.timers > max_messages then budget_error dst
      end
      else begin
        t.messages <- t.messages + 1;
        if t.messages + t.timers > max_messages then budget_error dst;
        t.deliveries.(dst) <- t.deliveries.(dst) + 1;
        let round = int_of_float (Float.floor time) in
        count_round t round;
        if Trace.enabled t.obs then
          Trace.message t.obs ~node:dst ~round ~time;
        if Cost.enabled t.cost then begin
          (* CONGEST accounting: charge the delivery to its construction
             phase (the protocol tag) and round; edge traffic (never
             external injections, whose [src] is -1) is also charged to
             its undirected edge, sized by the protocol's measured wire
             encoding. *)
          let bits =
            match t.measure with Some f -> f msg | None -> 0
          in
          Cost.record t.cost ~phase:protocol ~src ~dst ~round ~bits
        end
      end;
      actions.now <- time;
      t.states.(dst) <- handler actions ~self:dst t.states.(dst) msg
    end
  done;
  let makespan = t.clock.(makespan_i) in
  if Trace.enabled t.obs then begin
    Trace.counter t.obs "network.messages" (float_of_int t.messages);
    Trace.counter t.obs "network.makespan" makespan;
    (* only when the plan actually perturbed something: an inert (null)
       plan must leave the trace byte-identical to a fault-free run *)
    if t.faults <> no_fault_counts then begin
      Trace.counter t.obs "network.faults.dropped"
        (float_of_int t.faults.sent_dropped);
      Trace.counter t.obs "network.faults.duplicated"
        (float_of_int t.faults.sent_duplicated);
      Trace.counter t.obs "network.faults.crash_lost"
        (float_of_int t.faults.crash_lost)
    end
  end;
  { messages = t.messages; makespan }

(* First-class protocol execution: concrete protocols describe themselves
   as (init, handler, kickoff) and a runner decides how the messages
   actually travel — the plain simulator below, or a hardened transport
   (Cr_fault.Reliable) layered over a fault plan. *)

type runner = {
  execute :
    'msg 'state.
    ?measure:('msg -> int) ->
    Graph.t ->
    protocol:string ->
    init:(int -> 'state) ->
    handler:('msg actions -> self:int -> 'state -> 'msg -> 'state) ->
    kickoff:(int * 'msg) list ->
    max_messages:int ->
    'state array * stats;
}

let local ?obs ?jitter ?cost () =
  { execute =
      (fun ?measure g ~protocol ~init ~handler ~kickoff ~max_messages ->
        let net = create ?obs ?jitter ?cost ?measure g ~init in
        List.iter (fun (dst, msg) -> inject net ~dst msg) kickoff;
        let stats = run ~protocol net ~handler ~max_messages in
        (Array.init (Graph.n g) (state net), stats)) }
