(* Timing, allocation counters, quantiles, and the traced run's span
   recorder — everything the benchmark measures with, kept out of the
   libraries it measures.

   Clock: CLOCK_MONOTONIC in integer nanoseconds (bechamel's
   [Monotonic_clock]), never [Cr_obs.Trace.wall_clock], which is
   gettimeofday — microsecond resolution and subject to clock steps.

   Allocation: words from [Gc.quick_stat], which folds in the counters of
   domains that have already terminated. The repository's pools spawn and
   join their worker domains inside each parallel call, so a quick_stat
   delta around a pool-parallel call includes the workers' allocation;
   [Gc.minor_words ()] would count only the calling domain. *)

module Trace = Cr_obs.Trace
module Memory = Cr_obs.Sinks.Memory

let clock_source = "CLOCK_MONOTONIC (bechamel.monotonic_clock, ns)"

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* {1 Quantiles} *)

(* Nearest-rank quantile of an unsorted sample (copied, then sorted). *)
let quantile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Prof.quantile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

(* Growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () = { data = Array.make capacity 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* {1 Spans}

   Off by default. When enabled, [call] wraps each layer call in a
   [Cr_obs.Trace] span stamped by the monotonic clock and recorded into
   an in-memory sink owned by this module, followed by a
   ["<span>.alloc_w"] counter with the call's allocated words. The
   library's own global trace context is never touched: installing it
   would turn on the libraries' internal instrumentation and measure a
   different program. *)

let memory = ref None
let ctx = ref Trace.null

let enable () =
  let m = Memory.create ~capacity:(1 lsl 15) () in
  memory := Some m;
  ctx := Trace.make ~clock:now (Memory.sink m)

let tracing () = Trace.enabled !ctx

let events () =
  match !memory with
  | None -> []
  | Some m ->
    if Memory.dropped m > 0 then failwith "Prof: span buffer overflowed";
    Memory.events m

(* Every [call]'s seconds and allocated words, by span name. *)
let calls : (string, Sample.t * Sample.t) Hashtbl.t = Hashtbl.create 64

let note name dt words =
  let d, w =
    match Hashtbl.find_opt calls name with
    | Some s -> s
    | None ->
      let s = (Sample.create (), Sample.create ()) in
      Hashtbl.replace calls name s;
      s
  in
  Sample.add d dt;
  Sample.add w words

(* [call name f] runs [f ()] and returns its value, wall seconds, and
   allocated words ([nan] when tracing is off: the untraced run never
   reads the GC counters). *)
let call name f =
  let c = !ctx in
  if not (Trace.enabled c) then begin
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    note name dt Float.nan;
    (v, dt, Float.nan)
  end
  else begin
    let a0 = alloc_words () in
    Trace.emit c (Trace.Span_open { name });
    let t0 = now () in
    let v =
      try f ()
      with e ->
        Trace.emit c (Trace.Span_close { name });
        raise e
    in
    let dt = now () -. t0 in
    Trace.emit c (Trace.Span_close { name });
    let words = alloc_words () -. a0 in
    Trace.counter c (name ^ ".alloc_w") words;
    note name dt words;
    (v, dt, words)
  end

(* Per-name summaries of every [call] so far: median seconds and median
   allocated words per call — [nan] for a name never called, and for
   words when untraced. *)
let samples name f =
  match Hashtbl.find_opt calls name with
  | Some s -> Sample.to_array (f s)
  | None -> [||]

let med_s name =
  let a = samples name fst in
  if Array.length a = 0 then Float.nan else median a

let med_words name =
  let a = samples name snd in
  if Array.length a = 0 then Float.nan else median a

let total_prefix_s prefix =
  let k = String.length prefix in
  Hashtbl.fold
    (fun name (d, _) acc ->
      if String.length name >= k && String.equal (String.sub name 0 k) prefix then
        acc +. Array.fold_left ( +. ) 0.0 (Sample.to_array d)
      else acc)
    calls 0.0

let span name f =
  let v, _, _ = call name f in
  v

(* {1 Self times}

   A span's self time is its duration minus the durations of its direct
   children. Spans named ["workload.*"] or ["phase.*"] are the harness's
   own; every other span belongs to the layer named by its first
   dot-separated component. Because children lie inside their parents,
   the self times of all spans sum to the root span's duration — the
   identity the self-check verifies. *)

type self_times = {
  wall : float;  (** duration of the outermost span(s) *)
  layers : (string * float) list;  (** layer, summed self seconds *)
  residual : float;  (** self seconds of the harness spans *)
  spans : int;
}

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let is_harness name =
  let l = layer_of name in
  String.equal l "workload" || String.equal l "phase"

let self_times () =
  let layers = Hashtbl.create 16 in
  let wall = ref 0.0 and residual = ref 0.0 and spans = ref 0 in
  (* stack of (name, start, child seconds) *)
  let stack = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.body with
      | Trace.Span_open { name } -> stack := (name, ev.Trace.ts, ref 0.0) :: !stack
      | Trace.Span_close { name } -> (
        match !stack with
        | (open_name, t0, children) :: rest when String.equal open_name name ->
          let dur = ev.Trace.ts -. t0 in
          let self = dur -. !children in
          incr spans;
          (match rest with
          | (_, _, parent_children) :: _ ->
            parent_children := !parent_children +. dur
          | [] -> wall := !wall +. dur);
          stack := rest;
          if is_harness name then residual := !residual +. self
          else begin
            let l = layer_of name in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt layers l) in
            Hashtbl.replace layers l (prev +. self)
          end
        | _ -> failwith ("Prof: unbalanced span " ^ name))
      | _ -> ())
    (events ());
  if !stack <> [] then failwith "Prof: span left open";
  let layers =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [])
  in
  { wall = !wall; layers; residual = !residual; spans = !spans }

let write_chrome path =
  let oc = open_out path in
  output_string oc (Cr_obs.Chrome.to_string (events ()));
  close_out oc
