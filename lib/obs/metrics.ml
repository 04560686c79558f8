type hist = {
  buckets : float array;
  counts : int array;  (* length = Array.length buckets + 1 (overflow) *)
  mutable count : int;
  mutable sum : float;
}

type instrument =
  | I_counter of { mutable total : float }
  | I_gauge of { mutable value : float }
  | I_histogram of hist

type t = {
  tbl : (string, instrument) Hashtbl.t;
  mutable open_spans : (string * float) list;  (* LIFO stack for the sink *)
}

let create () = { tbl = Hashtbl.create 64; open_spans = [] }

let kind_label = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let wrong_kind name got want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_label got)
       want)

let inc t name v =
  if v < 0.0 then invalid_arg "Metrics.inc: negative increment";
  match Hashtbl.find_opt t.tbl name with
  | None -> Hashtbl.replace t.tbl name (I_counter { total = v })
  | Some (I_counter c) -> c.total <- c.total +. v
  | Some i -> wrong_kind name i "counter"

let set t name v =
  match Hashtbl.find_opt t.tbl name with
  | None -> Hashtbl.replace t.tbl name (I_gauge { value = v })
  | Some (I_gauge g) -> g.value <- v
  | Some i -> wrong_kind name i "gauge"

(* 2^-10 .. 2^10: spans (seconds), hop costs, and round numbers all fit. *)
let default_buckets = Array.init 21 (fun i -> 2.0 ** float_of_int (i - 10))

let check_buckets name buckets =
  if Array.length buckets = 0 then
    invalid_arg (Printf.sprintf "Metrics.observe: %s: empty buckets" name);
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg
          (Printf.sprintf "Metrics.observe: %s: buckets not increasing" name))
    buckets

let hist_observe h v =
  let n = Array.length h.buckets in
  let rec slot i = if i >= n || h.buckets.(i) >= v then i else slot (i + 1) in
  h.counts.(slot 0) <- h.counts.(slot 0) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v

let observe t ?buckets name v =
  match Hashtbl.find_opt t.tbl name with
  | None ->
    let buckets =
      match buckets with
      | None -> default_buckets
      | Some b ->
        check_buckets name b;
        Array.copy b
    in
    let h =
      { buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        count = 0;
        sum = 0.0 }
    in
    hist_observe h v;
    Hashtbl.replace t.tbl name (I_histogram h)
  | Some (I_histogram h) ->
    let same_bounds b =
      Array.length b = Array.length h.buckets
      && Array.for_all2 Float.equal b h.buckets
    in
    (match buckets with
    | Some b when not (same_bounds b) ->
      invalid_arg
        (Printf.sprintf "Metrics.observe: %s: conflicting bucket bounds" name)
    | _ -> ());
    hist_observe h v
  | Some i -> wrong_kind name i "histogram"

type entry =
  | Counter of float
  | Gauge of float
  | Histogram of {
      buckets : float array;
      counts : int array;
      count : int;
      sum : float;
    }

let entry_of = function
  | I_counter c -> Counter c.total
  | I_gauge g -> Gauge g.value
  | I_histogram h ->
    Histogram
      { buckets = Array.copy h.buckets;
        counts = Array.copy h.counts;
        count = h.count;
        sum = h.sum }

let snapshot t =
  Hashtbl.fold (fun name i acc -> (name, entry_of i) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map entry_of (Hashtbl.find_opt t.tbl name)

let to_json t =
  let buf = Buffer.create 512 in
  let fl = Sinks.json_float in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, entry) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:" name);
      match entry with
      | Counter v ->
        Buffer.add_string buf
          (Printf.sprintf "{\"kind\":\"counter\",\"value\":%s}" (fl v))
      | Gauge v ->
        Buffer.add_string buf
          (Printf.sprintf "{\"kind\":\"gauge\",\"value\":%s}" (fl v))
      | Histogram { buckets; counts; count; sum } ->
        Buffer.add_string buf
          (Printf.sprintf "{\"kind\":\"histogram\",\"count\":%d,\"sum\":%s,"
             count (fl sum));
        Buffer.add_string buf "\"le\":[";
        Array.iteri
          (fun i b ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (fl b))
          buckets;
        Buffer.add_string buf "],\"counts\":[";
        Array.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int c))
          counts;
        Buffer.add_string buf "]}")
    (snapshot t);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Trace adapter: see the .mli for the exact folding rules. Span pairs are
   matched LIFO by name; an unmatched close is ignored rather than
   corrupting the stack. *)
let sink t =
  (* levels collapse: "route.hops.zoom" counts all zoom levels *)
  let phase_key = Trace.phase_label in
  let emit (ev : Trace.event) =
    match ev.body with
    | Trace.Counter { name; value } -> set t name value
    | Trace.Mark _ -> ()
    | Trace.Hop { cost; phase; _ } ->
      let p = phase_key phase in
      inc t "route.hops" 1.0;
      inc t ("route.hops." ^ p) 1.0;
      inc t ("route.cost." ^ p) cost;
      observe t "route.hop_cost" cost
    | Trace.Span_open { name } ->
      t.open_spans <- (name, ev.ts) :: t.open_spans
    | Trace.Span_close { name } -> (
      match t.open_spans with
      | (top, t0) :: rest when String.equal top name ->
        t.open_spans <- rest;
        inc t ("span." ^ name ^ ".count") 1.0;
        inc t ("span." ^ name ^ ".seconds") (Float.max 0.0 (ev.ts -. t0))
      | _ -> ())
    | Trace.Message { round; _ } ->
      inc t "network.delivered" 1.0;
      observe t "network.round" (float_of_int round)
  in
  { Trace.emit }
