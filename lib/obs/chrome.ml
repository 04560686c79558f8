(* Chrome trace_event exporter (chrome://tracing, Perfetto).

   Two kinds of timeline coexist, on separate thread lanes of pid 1:
   - spans and counters live on tid 0 and use the context clock (seconds,
     converted to microseconds);
   - route events live on tid 1, 2, ... (one lane per route, a new lane
     starting at each "route..." mark) and use the walker's *cumulative
     cost* as their clock, scaled by [cost_scale] microseconds per unit of
     cost (one cost unit displays as 1 ms) — so the route lane reads as the paper's execution trace, each
     block a hop labeled with its phase. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fl = Sinks.json_float

let cost_scale = 1000.0

let to_string events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf line
  in
  let route_tid = ref 1 in
  List.iter
    (fun (ev : Trace.event) ->
      let ts = fl (ev.ts *. 1e6) in
      match ev.body with
      | Trace.Span_open { name } ->
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"build\",\"ph\":\"B\",\"pid\":1,\
              \"tid\":0,\"ts\":%s}"
             (escape name) ts)
      | Trace.Span_close { name } ->
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"build\",\"ph\":\"E\",\"pid\":1,\
              \"tid\":0,\"ts\":%s}"
             (escape name) ts)
      | Trace.Counter { name; value } ->
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\
              \"tid\":0,\"ts\":%s,\"args\":{\"value\":%s}}"
             (escape name) ts (fl value))
      | Trace.Mark { name } ->
        if String.length name >= 5 && String.sub name 0 5 = "route" then
          incr route_tid;
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"mark\",\"ph\":\"i\",\"pid\":1,\
              \"tid\":%d,\"ts\":%s,\"s\":\"t\"}"
             (escape name) !route_tid ts)
      | Trace.Hop { kind; src; dst; cost; total; phase } ->
        let name =
          match Trace.phase_level phase with
          | Some l -> Printf.sprintf "%s[%d]" (Trace.phase_label phase) l
          | None -> Trace.phase_label phase
        in
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"route\",\"ph\":\"X\",\"pid\":1,\
              \"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"kind\":\"%s\",\
              \"src\":%d,\"dst\":%d,\"cost\":%s}}"
             (escape name) !route_tid
             (fl ((total -. cost) *. cost_scale))
             (fl (cost *. cost_scale))
             (Trace.hop_kind_label kind)
             src dst (fl cost))
      | Trace.Message { node; round; time } ->
        add
          (Printf.sprintf
             "{\"name\":\"deliver\",\"cat\":\"proto\",\"ph\":\"i\",\"pid\":2,\
              \"tid\":%d,\"ts\":%s,\"s\":\"t\",\"args\":{\"round\":%d}}"
             node
             (fl (time *. cost_scale))
             round))
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* Live windows render as a counter time series: ts = window index (one
   logical window displays as 1ms), one lane per summary counter plus one
   lane per run-level hot edge, so Perfetto draws the utilization
   heatmap's evolution over the run. *)
let live_timeline live =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf line
  in
  let counter ~tid ~name ~ts value =
    add
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"live\",\"ph\":\"C\",\"pid\":4,\
          \"tid\":%d,\"ts\":%s,\"args\":{\"value\":%s}}"
         (escape name) tid
         (fl (float_of_int ts *. 1000.0))
         (fl value))
  in
  let hot = Live.hot_edges live in
  List.iter
    (fun (ws : Live.window_stats) ->
      let ts = ws.Live.ws_index in
      counter ~tid:0 ~name:"live.delivery_rate" ~ts ws.Live.ws_delivery_rate;
      counter ~tid:0 ~name:"live.stretch.p50" ~ts ws.Live.ws_stretch_p50;
      counter ~tid:0 ~name:"live.stretch.p99" ~ts ws.Live.ws_stretch_p99;
      counter ~tid:0 ~name:"live.util.max" ~ts
        (float_of_int ws.Live.ws_util_max);
      counter ~tid:0 ~name:"live.edge_messages" ~ts
        (float_of_int ws.Live.ws_edge_messages);
      List.iteri
        (fun rank (e : Live.edge_load) ->
          let count =
            List.fold_left
              (fun acc (he : Live.hot_edge) ->
                if he.Live.he_u = e.Live.u && he.Live.he_v = e.Live.v then
                  he.Live.he_count
                else acc)
              0 ws.Live.ws_top_edges
          in
          counter ~tid:(rank + 1)
            ~name:(Printf.sprintf "edge %d-%d" e.Live.u e.Live.v)
            ~ts (float_of_int count))
        hot)
    (Live.windows live);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let heatmap cost =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf line
  in
  (* One counter lane per edge, ranked hottest-first so Perfetto's track
     order reads as the heatmap: the top lanes are the congested edges. *)
  let edges = Cost.top_edges cost ~k:max_int in
  List.iteri
    (fun rank (e : Cost.edge_load) ->
      add
        (Printf.sprintf
           "{\"name\":\"edge %d-%d\",\"cat\":\"congestion\",\"ph\":\"C\",\
            \"pid\":3,\"tid\":%d,\"ts\":0,\"args\":{\"messages\":%d,\
            \"bits\":%d}}"
           e.Cost.u e.Cost.v rank e.Cost.messages e.Cost.bits))
    edges;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf
