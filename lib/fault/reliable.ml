module Graph = Cr_metric.Graph
module Network = Cr_proto.Network

(* The retransmit budget: attempts per logical send before giving up, the
   first timeout and its ceiling as multiples of the edge round-trip, and
   the timeout's growth factor per attempt. *)
let max_attempts = 16
let rto = 1.5
let backoff = 1.5
let rto_cap = 16.0

type totals = {
  data : int;
  retransmits : int;
  acks : int;
  raw_messages : int;
  timer_fires : int;
  faults : Network.fault_counts;
}

let zero_totals =
  { data = 0; retransmits = 0; acks = 0; raw_messages = 0; timer_fires = 0;
    faults =
      { sent_dropped = 0; sent_duplicated = 0; sent_delayed = 0;
        crash_lost = 0; timers_deferred = 0 } }

type t = {
  plan : Plan.t option;
  obs : Cr_obs.Trace.context option;
  cost : Cr_obs.Cost.t;
  mutable totals : totals;
}

let create ?plan ?obs ?(cost = Cr_obs.Cost.null) () =
  { plan; obs; cost; totals = zero_totals }

let totals t = t.totals

let reset t = t.totals <- zero_totals

(* The transport's framing around the inner protocol's messages. *)
type 'msg packet =
  | Boot of 'msg  (* kickoff injection, delivered by the simulator itself *)
  | Data of { seq : int; src : int; payload : 'msg }
  | Ack of { seq : int }
  | Resend of { seq : int }  (* local retransmission timer *)
  | Inner_timer of 'msg

type 'msg out_rec = {
  dst : int;
  weight : float;
  payload : 'msg;
  mutable attempt : int;
}

type ('msg, 'state) station = {
  mutable inner : 'state;
  mutable next_seq : int;
  outstanding : (int, 'msg out_rec) Hashtbl.t;
}

let add_faults a (b : Network.fault_counts) =
  { Network.sent_dropped = a.Network.sent_dropped + b.Network.sent_dropped;
    sent_duplicated = a.Network.sent_duplicated + b.Network.sent_duplicated;
    sent_delayed = a.Network.sent_delayed + b.Network.sent_delayed;
    crash_lost = a.Network.crash_lost + b.Network.crash_lost;
    timers_deferred = a.Network.timers_deferred + b.Network.timers_deferred }

(* Cost accounting sees the *framed* traffic: a [Data] or [Ack] packet
   costs its transport header (tag, 32-bit sequence number, source id)
   plus the inner payload's measured bits, so retransmissions and acks
   show up as extra cost over a fault-free run. Boot injections carry no
   framing (they never cross an edge); timers are never delivered as
   messages and cost nothing. *)
let measure_packet ~n inner =
  let module Wire = Cr_proto.Wire in
  let u = Wire.universe n in
  fun (packet : _ packet) ->
    match packet with
    | Boot m | Inner_timer m -> inner m
    | Data { seq; src; payload } ->
      Wire.tag ~cases:2 0 + Wire.seq seq + Wire.node u src + inner payload
    | Ack { seq } -> Wire.tag ~cases:2 1 + Wire.seq seq
    | Resend _ -> 0

let runner t =
  { Network.execute =
      (fun (type msg state) ?measure g ~protocol
           ~(init : int -> state)
           ~(handler :
              msg Network.actions -> self:int -> state -> msg -> state)
           ~(kickoff : (int * msg) list) ~max_messages ->
        let faults = Option.map Plan.hooks t.plan in
        let measure =
          Option.map (fun inner -> measure_packet ~n:(Graph.n g) inner) measure
        in
        let net =
          Network.create ?obs:t.obs ?faults ~cost:t.cost
            ?measure g
            ~init:(fun v ->
              ({ inner = init v; next_seq = 0; outstanding = Hashtbl.create 8 }
                : (msg, state) station))
        in
        let rto_delay weight attempt =
          let rtt = 2.0 *. weight in
          let mult = rto *. (backoff ** float_of_int (attempt - 1)) in
          rtt *. Float.min mult rto_cap
        in
        let stats_now now =
          { Network.messages =
              Array.fold_left ( + ) 0 (Network.deliveries net);
            makespan = now }
        in
        let give_up ~self ~now (rec_ : msg out_rec) =
          raise
            (Network.Protocol_error
               { protocol;
                 node = Some self;
                 stats = stats_now now;
                 detail =
                   Printf.sprintf
                     "retransmit budget exhausted after %d attempts (to \
                      node %d)"
                     rec_.attempt rec_.dst })
        in
        let outer (actions : msg packet Network.actions) ~self
            (st : (msg, state) station) packet =
          let reliable_send dst (msg : msg) =
            let weight =
              match Graph.edge_weight g self dst with
              | Some w -> w
              | None -> invalid_arg "Reliable: send to a non-neighbor"
            in
            let seq = st.next_seq in
            st.next_seq <- seq + 1;
            Hashtbl.replace st.outstanding seq
              { dst; weight; payload = msg; attempt = 1 };
            t.totals <- { t.totals with data = t.totals.data + 1 };
            actions.Network.send dst (Data { seq; src = self; payload = msg });
            actions.Network.timer ~delay:(rto_delay weight 1) (Resend { seq })
          in
          let wrapped =
            { Network.now = actions.Network.now;
              send = reliable_send;
              timer =
                (fun ~delay msg -> actions.Network.timer ~delay (Inner_timer msg))
            }
          in
          (match packet with
          | Boot m -> st.inner <- handler wrapped ~self st.inner m
          | Inner_timer m -> st.inner <- handler wrapped ~self st.inner m
          | Data { seq; src; payload } ->
            (* ack first, then deliver: the inner handler may raise, and
               an un-acked duplicate storm helps nobody diagnose it *)
            t.totals <- { t.totals with acks = t.totals.acks + 1 };
            actions.Network.send src (Ack { seq });
            st.inner <- handler wrapped ~self st.inner payload
          | Ack { seq } -> Hashtbl.remove st.outstanding seq
          | Resend { seq } -> (
            match Hashtbl.find_opt st.outstanding seq with
            | None -> ()  (* acked since the timer was armed *)
            | Some rec_ ->
              if rec_.attempt >= max_attempts then
                give_up ~self ~now:actions.Network.now rec_
              else begin
                rec_.attempt <- rec_.attempt + 1;
                t.totals <-
                  { t.totals with retransmits = t.totals.retransmits + 1 };
                actions.Network.send rec_.dst
                  (Data { seq; src = self; payload = rec_.payload });
                actions.Network.timer
                  ~delay:(rto_delay rec_.weight rec_.attempt)
                  (Resend { seq })
              end));
          st
        in
        List.iter
          (fun (dst, msg) -> Network.inject net ~dst (Boot msg))
          kickoff;
        (* every logical send costs at most max_attempts data deliveries,
           as many acks and as many timer fires — scale the raw event
           budget so the *inner* budget keeps its meaning *)
        let raw_budget =
          1000 + (((3 * max_attempts) + 2) * max_messages)
        in
        let stats =
          Network.run ~protocol net ~handler:outer ~max_messages:raw_budget
        in
        t.totals <-
          { t.totals with
            raw_messages = t.totals.raw_messages + stats.Network.messages;
            timer_fires = t.totals.timer_fires + Network.timer_events net;
            faults = add_faults t.totals.faults (Network.fault_counts net) };
        let states =
          Array.init (Graph.n g) (fun v ->
              let st : (msg, state) station = Network.state net v in
              (* quiescence with an unacked send cannot happen: every
                 outstanding record keeps a live Resend timer until it is
                 acked or the attempt budget raises *)
              assert (Hashtbl.length st.outstanding = 0);
              st.inner)
        in
        (states, stats)) }
