(* E20 — route serving: serve every scheme from its Cr_serve engine (each
   engine serves its scheme's own walk; only the flat next_hop tables are
   the engine's) and prove the served routes are the walked routes.

   For each thousand-node family and each of the six schemes (four core +
   two comparators), the experiment (a) routes the standard workload
   through the scheme's own walker, (b) serves the same workload from the
   engine via Engine.batch, and (c) compares the two outcome
   vectors with exact float equality — `ident` below is 1.0 only if every
   single pair matches bit for bit, and the report check rule gates on
   it. The flat engines (hier / full / landmark) additionally prove a
   zero-allocation lookup path: `alloc_w` is the Gc.minor_words delta
   across 10k next_hop calls, gated at exactly 0.

   Deterministic metrics: stretch summary (of the served routes),
   serve.stretch_identical, serve.alloc_words, serve.compiled_bits.max /
   .avg (the engine's per-node serving state, wire-exact for ring
   tables), serve.bytes_per_node (the tables a served route reads). Timings (tolerance
   class, --ignore-timings diffable): serve.compile.seconds,
   serve.batch.seconds, serve.routes_per_sec, serve.ns_per_lookup (flat
   engines), and serve.ns_per_hop — one sequential Engine.route per pair,
   total time over total hops — for all six engines. *)

open Common
module Engine = Cr_serve.Engine
module Hier = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Sfni = Cr_core.Scale_free_ni
module Landmark = Cr_baselines.Landmark
module Full_table = Cr_baselines.Full_table

let now () = Cr_obs.Trace.wall_clock ()

let same_outcome (a : Scheme.outcome) (b : Scheme.outcome) =
  Float.equal a.Scheme.cost b.Scheme.cost && a.Scheme.hops = b.Scheme.hops

(* Walked outcomes, one per pair in pair order, over the shared pool. *)
let walked_outcomes route pairs =
  Pool.parallel_map (pool ())
    (fun (src, dst) -> route ~src ~dst)
    (Array.of_list pairs)

let summarize_outcomes inst pairs (outcomes : Scheme.outcome array) =
  Stats.summarize
    (List.mapi
       (fun i (src, dst) ->
         ( Metric.dist inst.metric src dst,
           outcomes.(i).Scheme.cost,
           outcomes.(i).Scheme.hops ))
       pairs)

(* Zero-allocation proof for the flat engines: minor words allocated by
   10k next_hop lookups, after one warm-up sweep. Must be exactly 0. *)
let lookup_pairs n =
  Array.init 10_000 (fun i -> (i mod n, i * 7919 mod n))

let rec burn eng pairs i acc =
  if i = Array.length pairs then acc
  else
    let src, dst = pairs.(i) in
    burn eng pairs (i + 1) (acc + Engine.next_hop eng ~src ~dst)

let alloc_words eng =
  let pairs = lookup_pairs (Engine.n eng) in
  let warm = burn eng pairs 0 0 in
  let before = Gc.minor_words () in
  let again = burn eng pairs 0 0 in
  let after = Gc.minor_words () in
  assert (warm = again);
  after -. before

(* ns per next_hop over the 10k-lookup sweep (flat engines only: the
   probe-driven engines have no O(1) lookup to time). *)
let ns_per_lookup eng =
  let pairs = lookup_pairs (Engine.n eng) in
  ignore (burn eng pairs 0 0);
  let t0 = now () in
  ignore (burn eng pairs 0 0);
  (now () -. t0) *. 1e9 /. float_of_int (Array.length pairs)

(* ns per served hop: every pair routed once more, sequentially, after
   the batch has warmed the engine. *)
let ns_per_hop eng pairs =
  let t0 = now () in
  let hops =
    Array.fold_left
      (fun acc (src, dst) -> acc + (Engine.route eng ~src ~dst).Scheme.hops)
      0 pairs
  in
  (now () -. t0) *. 1e9 /. float_of_int (max 1 hops)

type measured = {
  scheme : string;
  ident : float;  (* 1.0 iff served = walked on every pair *)
  summary : Stats.summary;
  bits_max : int;
  bits_avg : float;
  bytes_per_node : float;
  alloc : float option;  (* flat engines only *)
  t_compile : float;
  t_batch : float;
  routes_per_sec : float;
  ns_lookup : float option;
  ns_hop : float;
  table_bits : (string * Report.value) list;
}

let measure inst ~flat ~table_bits ~compile route pairs =
  let t0 = now () in
  let eng = compile () in
  let t_compile = now () -. t0 in
  let walked = walked_outcomes route pairs in
  let parr = Array.of_list pairs in
  let t1 = now () in
  let served = Engine.batch ~pool:(pool ()) eng parr in
  let t_batch = now () -. t1 in
  let ident = if Array.for_all2 same_outcome walked served then 1.0 else 0.0 in
  let n = Engine.n eng in
  let bits_max = ref 0 and bits_sum = ref 0 in
  for v = 0 to n - 1 do
    let b = Engine.compiled_bits eng v in
    if b > !bits_max then bits_max := b;
    bits_sum := !bits_sum + b
  done;
  { scheme = Engine.scheme_name eng;
    ident;
    summary = summarize_outcomes inst pairs served;
    bits_max = !bits_max;
    bits_avg = float_of_int !bits_sum /. float_of_int n;
    bytes_per_node = Engine.bytes_per_node eng;
    alloc = (if flat then Some (alloc_words eng) else None);
    t_compile;
    t_batch;
    routes_per_sec =
      (if t_batch > 0.0 then float_of_int (Array.length parr) /. t_batch
       else 0.0);
    ns_lookup = (if flat then Some (ns_per_lookup eng) else None);
    ns_hop = ns_per_hop eng parr;
    table_bits }

let schemes_of inst =
  let naming = naming_of inst in
  let n = Metric.n inst.metric in
  let p = pool () in
  let hl = Hier.build ~pool:p inst.nt ~epsilon:default_epsilon in
  let sfl = Sfl.build ~pool:p inst.nt ~epsilon:default_epsilon in
  let sni =
    Simple_ni.build ~pool:p inst.nt ~epsilon:default_epsilon ~naming
      ~underlying:(Hier.to_underlying hl)
  in
  let sfni =
    Sfni.build ~pool:p inst.nt ~epsilon:default_epsilon ~naming
      ~underlying:(Sfl.to_underlying sfl)
  in
  let lm = Landmark.build inst.metric ~seed:3 in
  let hl_s = Hier.to_underlying hl and sfl_s = Sfl.to_underlying sfl in
  let sni_s = Simple_ni.to_scheme sni and sfni_s = Sfni.to_scheme sfni in
  let ft = Full_table.labeled inst.metric and lm_s = Landmark.labeled_of lm in
  let walked (s : Scheme.labeled) ~src ~dst =
    Scheme.route_labeled inst.metric s ~src ~dst
  in
  let walked_ni (s : Scheme.name_independent) ~src ~dst =
    s.Scheme.route_to_name ~src ~dest_name:naming.Workload.name_of.(dst)
  in
  let labeled_bits (s : Scheme.labeled) =
    [ ("table_bits.max", Report.Int (Scheme.max_table_bits s n));
      ("table_bits.avg", Report.Float (Scheme.avg_table_bits s n)) ]
  in
  let ni_bits (s : Scheme.name_independent) =
    [ ("table_bits.max", Report.Int (Scheme.ni_max_table_bits s n));
      ("table_bits.avg", Report.Float (Scheme.ni_avg_table_bits s n)) ]
  in
  (* Engines for the name-independent pair take the labeled engines
     compiled from their underlying labeled instances, whose tables they
     count. *)
  let e_hier = ref None and e_sfl = ref None in
  let compile_hier () =
    let e = Engine.compile_hier ~pool:p hl in
    e_hier := Some e;
    e
  in
  let compile_sfl () =
    let e = Engine.compile_scale_free_labeled ~pool:p sfl in
    e_sfl := Some e;
    e
  in
  [ ("flat", labeled_bits hl_s, compile_hier, walked hl_s);
    ("probe", labeled_bits sfl_s, compile_sfl, walked sfl_s);
    ( "probe",
      ni_bits sni_s,
      (fun () ->
        Engine.compile_simple_ni ~pool:p ~underlying:(Option.get !e_hier) sni),
      walked_ni sni_s );
    ( "probe",
      ni_bits sfni_s,
      (fun () ->
        Engine.compile_scale_free_ni ~pool:p ~underlying:(Option.get !e_sfl)
          sfni),
      walked_ni sfni_s );
    ( "flat",
      labeled_bits ft,
      (fun () -> Engine.compile_full ~pool:p inst.metric),
      walked ft );
    ( "flat",
      labeled_bits lm_s,
      (fun () -> Engine.compile_landmark ~pool:p inst.metric lm),
      walked lm_s ) ]

let run () =
  print_header
    "E20: route serving (served routes vs walker routes; flat arenas)"
    [ "family"; "scheme"; "ident"; "routes/s"; "ns/hop"; "ns/lookup";
      "bits/node(max)"; "bytes/node"; "alloc" ];
  List.iter
    (fun inst ->
      let pairs = pairs_of inst in
      List.iter
        (fun (kind, table_bits, compile, route) ->
          let r =
            measure inst ~flat:(String.equal kind "flat") ~table_bits
              ~compile route pairs
          in
          print_row
            [ cell "%-10s" inst.name;
              cell "%-36s" r.scheme;
              cell "%5.1f" r.ident;
              cell "%9.0f" r.routes_per_sec;
              cell "%6.1f" r.ns_hop;
              (match r.ns_lookup with
              | Some ns -> cell "%7.1f" ns
              | None -> "      -");
              cell "%10d" r.bits_max;
              cell "%10.1f" r.bytes_per_node;
              (match r.alloc with
              | Some w -> cell "%5.0f" w
              | None -> "    -") ];
          record ~family:inst.name ~scheme:r.scheme
            ~timings:
              ([ ("serve.compile.seconds", r.t_compile);
                 ("serve.batch.seconds", r.t_batch);
                 ("serve.routes_per_sec", r.routes_per_sec);
                 ("serve.ns_per_hop", r.ns_hop) ]
              @
              match r.ns_lookup with
              | Some ns -> [ ("serve.ns_per_lookup", ns) ]
              | None -> [])
            (Report.of_summary r.summary
            @ instance_metrics inst
            @ r.table_bits
            @ [ ("serve.stretch_identical", Report.Float r.ident);
                ("serve.compiled_bits.max", Report.Int r.bits_max);
                ("serve.compiled_bits.avg", Report.Float r.bits_avg);
                ("serve.bytes_per_node", Report.Float r.bytes_per_node) ]
            @
            match r.alloc with
            | Some w -> [ ("serve.alloc_words", Report.Float w) ]
            | None -> []))
        (schemes_of inst))
    (large_families ~pool:(pool ()) ());
  print_newline ();
  print_endline
    "ident = 1.0 iff every served route equals the walked route bit for bit";
  print_endline
    "(cost via Float.equal, hops exactly); alloc = minor words per 10k flat";
  print_endline "lookups (must be 0). Probe-driven engines show '-' columns."
