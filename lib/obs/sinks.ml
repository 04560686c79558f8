let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Deterministic float formatting: integers print as "3", everything else
   with 9 significant digits — stable across runs, which the golden-trace
   tests rely on. JSON has no non-finite number tokens, so NaN and the
   infinities render as the conventional quoted strings (what %g would
   print — bare `nan` / `inf` — is not valid JSON at all). *)
let json_float f =
  if Float.is_nan f then "\"NaN\""
  else if Float.equal f Float.infinity then "\"Infinity\""
  else if Float.equal f Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  buf_add_json_string buf s;
  Buffer.contents buf

let json_of_event (ev : Trace.event) =
  let buf = Buffer.create 96 in
  let field_sep () =
    if Buffer.length buf > 1 then Buffer.add_char buf ','
  in
  let str k v =
    field_sep ();
    buf_add_json_string buf k;
    Buffer.add_char buf ':';
    buf_add_json_string buf v
  in
  let num k v =
    field_sep ();
    buf_add_json_string buf k;
    Buffer.add_char buf ':';
    Buffer.add_string buf (json_float v)
  in
  let int k v =
    field_sep ();
    buf_add_json_string buf k;
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int v)
  in
  let phase k p =
    str k (Trace.phase_label p);
    Option.iter (fun l -> int "level" l) (Trace.phase_level p)
  in
  Buffer.add_char buf '{';
  num "ts" ev.ts;
  (match ev.body with
  | Trace.Span_open { name } ->
    str "ev" "span-open";
    str "name" name
  | Trace.Span_close { name } ->
    str "ev" "span-close";
    str "name" name
  | Trace.Counter { name; value } ->
    str "ev" "counter";
    str "name" name;
    num "value" value
  | Trace.Mark { name } ->
    str "ev" "mark";
    str "name" name
  | Trace.Hop { kind; src; dst; cost; total; phase = p } ->
    str "ev" "hop";
    str "kind" (Trace.hop_kind_label kind);
    int "src" src;
    int "dst" dst;
    num "cost" cost;
    num "total" total;
    phase "phase" p
  | Trace.Message { node; round; time } ->
    str "ev" "message";
    int "node" node;
    int "round" round;
    num "time" time);
  Buffer.add_char buf '}';
  Buffer.contents buf

module Memory = struct
  type t = {
    ring : Trace.event option array;
    mutable next : int;  (* total events ever emitted *)
  }

  let default_capacity = 65_536

  let create ?(capacity = default_capacity) () =
    if capacity <= 0 then invalid_arg "Sinks.Memory.create: capacity <= 0";
    { ring = Array.make capacity None; next = 0 }

  let emit t ev =
    t.ring.(t.next mod Array.length t.ring) <- Some ev;
    t.next <- t.next + 1

  let sink t = { Trace.emit = emit t }

  let length t = min t.next (Array.length t.ring)
  let dropped t = max 0 (t.next - Array.length t.ring)

  let events t =
    let cap = Array.length t.ring in
    let len = length t in
    let first = if t.next <= cap then 0 else t.next mod cap in
    List.init len (fun i ->
        match t.ring.((first + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)

end
