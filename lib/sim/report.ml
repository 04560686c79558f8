module Sinks = Cr_obs.Sinks
module Metrics = Cr_obs.Metrics

(* Stamped into every file as "schema". Bump it whenever field names or
   semantics change; cr_report diff refuses to compare mismatched
   schemas. *)
let schema_version = 1

type value = Float of float | Int of int | Str of string

type row = {
  family : string;
  scheme : string;
  metrics : (string * value) list;
  timings : (string * float) list;
}

type t = {
  experiment : string;
  mutable rows_rev : row list;
}

let create ~experiment = { experiment; rows_rev = [] }
let rows t = List.rev t.rows_rev

let sorted_fields what fields =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some k ->
    invalid_arg (Printf.sprintf "Report.add_row: duplicate %s key %s" what k)
  | None -> sorted

let add_row t ~family ~scheme ?discriminator ?(timings = []) metrics =
  let scheme =
    match discriminator with
    | None -> scheme
    | Some d -> scheme ^ "@" ^ d
  in
  if
    List.exists
      (fun r -> String.equal r.family family && String.equal r.scheme scheme)
      t.rows_rev
  then
    invalid_arg
      (Printf.sprintf "Report.add_row: duplicate row %s/%s" family scheme);
  t.rows_rev <-
    { family;
      scheme;
      metrics = sorted_fields "metric" metrics;
      timings = sorted_fields "timing" timings }
    :: t.rows_rev

let of_summary (s : Stats.summary) =
  [ ("pairs", Int s.Stats.count);
    ("stretch.max", Float s.Stats.max_stretch);
    ("stretch.avg", Float s.Stats.avg_stretch);
    ("stretch.p50", Float s.Stats.p50_stretch);
    ("stretch.p99", Float s.Stats.p99_stretch);
    ("cost.max", Float s.Stats.max_cost);
    ("hops.total", Int s.Stats.total_hops) ]

let of_live_window (w : Cr_obs.Live.window_stats) =
  [ ("win.index", Int w.Cr_obs.Live.ws_index);
    ("routes", Int w.Cr_obs.Live.ws_routes);
    ("routes.delivered", Int w.Cr_obs.Live.ws_delivered);
    ("routes.rerouted", Int w.Cr_obs.Live.ws_rerouted);
    ("routes.undeliverable", Int w.Cr_obs.Live.ws_undeliverable);
    ("delivery.rate", Float w.Cr_obs.Live.ws_delivery_rate);
    ("stretch.p50", Float w.Cr_obs.Live.ws_stretch_p50);
    ("stretch.p95", Float w.Cr_obs.Live.ws_stretch_p95);
    ("stretch.p99", Float w.Cr_obs.Live.ws_stretch_p99);
    ("hops.p50", Float w.Cr_obs.Live.ws_hops_p50);
    ("hops.p99", Float w.Cr_obs.Live.ws_hops_p99);
    ("latency.p50", Float w.Cr_obs.Live.ws_latency_p50);
    ("latency.p99", Float w.Cr_obs.Live.ws_latency_p99);
    ("win.edge_messages", Int w.Cr_obs.Live.ws_edge_messages);
    ("win.util.max", Int w.Cr_obs.Live.ws_util_max);
    ("win.edges", Int w.Cr_obs.Live.ws_edges_touched) ]

let of_snapshot snap =
  List.concat_map
    (fun (name, entry) ->
      match (entry : Metrics.entry) with
      | Metrics.Counter v | Metrics.Gauge v -> [ (name, Float v) ]
      | Metrics.Histogram { count; sum; _ } ->
        [ (name ^ ".count", Int count); (name ^ ".sum", Float sum) ])
    snap

let value_json = function
  | Float f -> Sinks.json_float f
  | Int i -> string_of_int i
  | Str s -> Sinks.json_string s

let fields_json buf fields value_of =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Sinks.json_string k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (value_of v))
    fields;
  Buffer.add_char buf '}'

let to_json ?(timings = true) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":%d,\"experiment\":%s,\"rows\":[" schema_version
       (Sinks.json_string t.experiment));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n {\"family\":";
      Buffer.add_string buf (Sinks.json_string r.family);
      Buffer.add_string buf ",\"scheme\":";
      Buffer.add_string buf (Sinks.json_string r.scheme);
      Buffer.add_string buf ",\"metrics\":";
      fields_json buf r.metrics value_json;
      if timings then begin
        Buffer.add_string buf ",\"timings\":";
        fields_json buf r.timings Sinks.json_float
      end;
      Buffer.add_char buf '}')
    (rows t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let manifest_json ~cr_domains ~git_rev ~host ~seeds ~experiments =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":%d,\"kind\":\"manifest\",\"cr_domains\":%d,\"git_rev\":%s,\"host\":%s,\"seeds\":"
       schema_version cr_domains
       (Sinks.json_string git_rev)
       (Sinks.json_string host));
  fields_json buf seeds string_of_int;
  Buffer.add_string buf ",\"experiments\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Sinks.json_string e))
    experiments;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
