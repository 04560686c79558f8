type phase =
  | Unphased
  | Zoom of int
  | Ball_search of int
  | Net_phase
  | Voronoi_phase
  | Search_tree_phase
  | Teleport
  | Deliver
  | Fallback
  | Faults

let phase_label = function
  | Unphased -> "unphased"
  | Zoom _ -> "zoom"
  | Ball_search _ -> "ball-search"
  | Net_phase -> "net"
  | Voronoi_phase -> "voronoi"
  | Search_tree_phase -> "search-tree"
  | Teleport -> "teleport"
  | Deliver -> "deliver"
  | Fallback -> "fallback"
  | Faults -> "faults"

let phase_level = function
  | Zoom i | Ball_search i -> Some i
  | Unphased | Net_phase | Voronoi_phase | Search_tree_phase | Teleport
  | Deliver | Fallback | Faults ->
    None

type hop_kind = Edge | Jump

let hop_kind_label = function Edge -> "edge" | Jump -> "teleport"

type body =
  | Span_open of { name : string }
  | Span_close of { name : string }
  | Counter of { name : string; value : float }
  | Mark of { name : string }
  | Hop of {
      kind : hop_kind;
      src : int;
      dst : int;
      cost : float;
      total : float;
      phase : phase;
    }
  | Message of { node : int; round : int; time : float }

type event = { ts : float; body : body }

type sink = { emit : event -> unit }

type context = {
  enabled : bool;
  clock : unit -> float;
  sink : sink;
}

let null_sink = { emit = ignore }

let null = { enabled = false; clock = (fun () -> 0.0); sink = null_sink }

let wall_clock = Unix.gettimeofday

let counting_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

let make ?(clock = wall_clock) sink = { enabled = true; clock; sink }

let get_global () = null
let resolve = function Some ctx -> ctx | None -> null

let enabled ctx = ctx.enabled

let emit ctx body =
  if ctx.enabled then ctx.sink.emit { ts = ctx.clock (); body }

let span ctx name f =
  if not ctx.enabled then f ()
  else begin
    emit ctx (Span_open { name });
    Fun.protect ~finally:(fun () -> emit ctx (Span_close { name })) f
  end

let counter ctx name value = emit ctx (Counter { name; value })

let hop ctx ~kind ~src ~dst ~cost ~total ~phase =
  emit ctx (Hop { kind; src; dst; cost; total; phase })

let message ctx ~node ~round ~time = emit ctx (Message { node; round; time })
