(* Differential tests for the route-serving engine: served routes must be
   indistinguishable from the schemes' own walker routes — byte-identical
   traces, bit-identical costs, same hop sequences — for every scheme, on
   every fixture, whatever the pool size. *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Hier_labeled = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Ni_scheme = Cr_core.Ni_scheme
module Sfni = Cr_core.Scale_free_ni
module Rings = Cr_core.Rings
module Landmark = Cr_baselines.Landmark
module Full_table = Cr_baselines.Full_table
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Sinks = Cr_obs.Sinks
module Pool = Cr_par.Pool
module Table_codec = Cr_codec.Table_codec
module Route_trace = Cr_core.Route_trace
module Engine = Cr_serve.Engine

type fixture = {
  m : Metric.t;
  naming : Workload.naming;
  hl : Hier_labeled.t;
  sfl : Sfl.t;
  sni : Simple_ni.t;
  sfni : Sfni.t;
  lm : Landmark.t;
  e_hier : Engine.t;
  e_sfl : Engine.t;
  e_sni : Engine.t;
  e_sfni : Engine.t;
  e_full : Engine.t;
  e_lm : Engine.t;
}

let make_fixture m =
  let nt = Netting_tree.build (Hierarchy.build m) in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let sfl = Sfl.build nt ~epsilon:0.5 in
  let sni =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  let sfni =
    Sfni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Sfl.to_underlying sfl)
  in
  let lm = Landmark.build m ~seed:3 in
  let e_hier = Engine.compile_hier hl in
  let e_sfl = Engine.compile_scale_free_labeled sfl in
  { m; naming; hl; sfl; sni; sfni; lm; e_hier; e_sfl;
    e_sni = Engine.compile_simple_ni ~underlying:e_hier sni;
    e_sfni = Engine.compile_scale_free_ni ~underlying:e_sfl sfni;
    e_full = Engine.compile_full m;
    e_lm = Engine.compile_landmark m lm }

(* grid, geometric, and tree-like (exponential chain) fixtures *)
let fx_grid = memo (fun () -> make_fixture (grid6 ()))
let fx_geo = memo (fun () -> make_fixture (geo48 ()))
let fx_expo = memo (fun () -> make_fixture (expo12 ()))

let fixtures = [ ("grid6", fx_grid); ("geo48", fx_geo); ("expo12", fx_expo) ]

(* The scheme-side walk and the engine serving it, per scheme. *)
let core_schemes fx =
  [ ( "hier",
      (let h = Hier_labeled.to_underlying fx.hl in
       fun w dst -> h.Scheme.walk w ~dest_label:(h.Scheme.label dst)),
      fx.e_hier );
    ( "sfl",
      (fun w dst -> Sfl.walk fx.sfl w ~dest_label:(Sfl.label fx.sfl dst)),
      fx.e_sfl );
    ( "simple-ni",
      (fun w dst ->
        Ni_scheme.walk fx.sni w ~dest_name:fx.naming.Workload.name_of.(dst)),
      fx.e_sni );
    ( "sf-ni",
      (fun w dst ->
        Ni_scheme.walk (Sfni.scheme fx.sfni) w
          ~dest_name:fx.naming.Workload.name_of.(dst)),
      fx.e_sfni ) ]

(* The harness outcome evaluators, per engine (all six). *)
let all_outcomes fx =
  let walked s ~src ~dst = Scheme.route_labeled fx.m s ~src ~dst in
  [ ("hier", walked (Hier_labeled.to_underlying fx.hl), fx.e_hier);
    ("sfl", walked (Sfl.to_underlying fx.sfl), fx.e_sfl);
    ( "simple-ni",
      (fun ~src ~dst ->
        (Simple_ni.to_scheme fx.sni).Scheme.route_to_name ~src
          ~dest_name:fx.naming.Workload.name_of.(dst)),
      fx.e_sni );
    ( "sf-ni",
      (fun ~src ~dst ->
        (Sfni.to_scheme fx.sfni).Scheme.route_to_name ~src
          ~dest_name:fx.naming.Workload.name_of.(dst)),
      fx.e_sfni );
    ("full", walked (Full_table.labeled fx.m), fx.e_full);
    ("landmark", walked (Landmark.labeled_of fx.lm), fx.e_lm) ]

let same_outcome (a : Scheme.outcome) (b : Scheme.outcome) =
  Float.equal a.Scheme.cost b.Scheme.cost && a.Scheme.hops = b.Scheme.hops

(* Every (src, dst) — diagonal included — for all six schemes: the served
   outcome equals the walked outcome bit for bit (costs are float sums, so
   equality requires the same additions in the same order). *)
let test_outcomes_all_pairs fname fx () =
  let fx = fx () in
  let n = Metric.n fx.m in
  let pairs = all_pairs n @ List.init n (fun v -> (v, v)) in
  List.iter
    (fun (sname, walked, eng) ->
      List.iter
        (fun (src, dst) ->
          let a = walked ~src ~dst in
          let b = Engine.route eng ~src ~dst in
          check_bool
            (Printf.sprintf "%s/%s (%d -> %d): served = walked" fname sname
               src dst)
            true (same_outcome a b))
        pairs)
    (all_outcomes fx)

(* Byte-identical traces: running the engine's walk through a real
   walker produces the exact event stream of the scheme's own walk —
   same hops, same kinds, same phases, same cumulative costs. *)
let capture m walkfn ~src =
  let mem = Sinks.Memory.create ~capacity:262144 () in
  let ctx = Trace.make ~clock:(Trace.counting_clock ()) (Sinks.Memory.sink mem) in
  let w =
    Walker.create ~obs:ctx m ~start:src ~max_hops:(Walker.ni_budget (Metric.n m))
  in
  walkfn w;
  ( List.map Sinks.json_of_event (Sinks.Memory.events mem),
    Walker.cost w, Walker.hops w )

let test_traces_identical fname fx () =
  let fx = fx () in
  let n = Metric.n fx.m in
  let pairs =
    Workload.sample_pairs ~n ~count:40 ~seed:13 @ [ (0, 0); (n - 1, n - 1) ]
  in
  List.iter
    (fun (sname, walkfn, eng) ->
      List.iter
        (fun (src, dst) ->
          let ev_w, cost_w, hops_w = capture fx.m (fun w -> walkfn w dst) ~src in
          let ev_s, cost_s, hops_s =
            capture fx.m (fun w -> Engine.walk eng w ~dst) ~src
          in
          let label what =
            Printf.sprintf "%s/%s (%d -> %d): %s" fname sname src dst what
          in
          check_int (label "event count") (List.length ev_w) (List.length ev_s);
          List.iter2
            (fun a b -> Alcotest.(check string) (label "event") a b)
            ev_w ev_s;
          check_bool (label "cost") true (Float.equal cost_w cost_s);
          check_int (label "hops") hops_w hops_s)
        pairs)
    (core_schemes fx)

(* [next_hop] answers with the served route's first movement. *)
let test_next_hop_is_first_move fname fx () =
  let fx = fx () in
  let n = Metric.n fx.m in
  let pairs = Workload.sample_pairs ~n ~count:60 ~seed:19 in
  List.iter
    (fun (sname, _, eng) ->
      check_int
        (Printf.sprintf "%s/%s: next_hop on the diagonal" fname sname)
        (-1)
        (Engine.next_hop eng ~src:0 ~dst:0);
      List.iter
        (fun (src, dst) ->
          if src <> dst then begin
            let h = Engine.next_hop eng ~src ~dst in
            let t =
              Route_trace.capture fx.m ~src ~dst ~walk:(fun w ->
                  Engine.walk eng w ~dst)
            in
            match Route_trace.nodes ~src t.Route_trace.events with
            | _ :: first :: _ ->
              check_int
                (Printf.sprintf "%s/%s (%d -> %d): first move" fname sname src
                   dst)
                first h
            | _ -> Alcotest.fail "route did not move"
          end)
        pairs)
    (List.map (fun (s, _, e) -> (s, (), e)) (core_schemes fx)
    @ [ ("full", (), fx.e_full); ("landmark", (), fx.e_lm) ])

(* Batched evaluation is pool-size invariant byte for byte. *)
let test_batch_pool_invariance () =
  let fx = fx_geo () in
  let n = Metric.n fx.m in
  let pairs = Array.of_list (Workload.sample_pairs ~n ~count:120 ~seed:7) in
  let p1 = Pool.create ~domains:1 () in
  let p4 = Pool.create ~domains:4 () in
  List.iter
    (fun (sname, _, eng) ->
      let seq = Array.map (fun (src, dst) -> Engine.route eng ~src ~dst) pairs in
      let b1 = Engine.batch ~pool:p1 eng pairs in
      let b4 = Engine.batch ~pool:p4 eng pairs in
      Array.iteri
        (fun i o ->
          check_bool
            (Printf.sprintf "%s pair %d: domains=1" sname i)
            true (same_outcome o b1.(i));
          check_bool
            (Printf.sprintf "%s pair %d: domains=4" sname i)
            true (same_outcome o b4.(i)))
        seq)
    (all_outcomes fx)

(* The linear scan the piece index replaced, as the reference: the
   first level in stored order with a range covering [label]. *)
let scan_cover levels ~label =
  List.find_map
    (fun (l : Table_codec.ring_level) ->
      List.find_map
        (fun (e : Table_codec.ring_entry) ->
          if e.range_lo <= label && label <= e.range_hi then
            Some (l.level, e.member, e.next_hop)
          else None)
        l.entries)
    levels

let cover_of rings ~at ~label =
  let e = Rings.cover rings ~at ~label in
  if e < 0 then None
  else
    Some
      ( Rings.entry_level rings e,
        Rings.entry_member rings e,
        Rings.entry_hop rings e )

(* [Rings.cover] answers exactly what the scan of the node's wire view
   answers, for every node and every label, including -1 and n, which no
   level covers. *)
let prop_cover_is_scan =
  qcheck_case ~count:40 "piece-index cover = linear scan (hier and sfl rings)"
    cover_family_gen (fun params ->
      let m = Metric.of_graph (cover_family_graph params) in
      let n = Metric.n m in
      let nt = Netting_tree.build (Hierarchy.build m) in
      List.for_all
        (fun mode ->
          let rings = Rings.build nt ~epsilon:0.5 ~mode in
          List.for_all
            (fun at ->
              let levels = Rings.levels_of rings at in
              List.for_all
                (fun label ->
                  cover_of rings ~at ~label = scan_cover levels ~label)
                (List.init (n + 2) (fun l -> l - 1)))
            (List.init n Fun.id))
        [ Rings.All_levels; Rings.Selected ])

(* The zero-allocation regression gate: 10k lookups on the flat engines
   allocate nothing on the minor heap. (The per-route engines probe a
   walk and are exempt — E20 gates only the flat ones.) *)
let rec burn eng pairs i acc =
  if i = Array.length pairs then acc
  else
    let src, dst = pairs.(i) in
    burn eng pairs (i + 1) (acc + Engine.next_hop eng ~src ~dst)

let test_zero_alloc_lookups () =
  let fx = fx_geo () in
  let n = Metric.n fx.m in
  let pairs =
    Array.init 10_000 (fun i ->
        let s = i mod n in
        let d = (i * 7919) mod n in
        (s, d))
  in
  List.iter
    (fun (sname, eng) ->
      let warm = burn eng pairs 0 0 in
      let before = Gc.minor_words () in
      let again = burn eng pairs 0 0 in
      let after = Gc.minor_words () in
      check_int (Printf.sprintf "%s: lookups deterministic" sname) warm again;
      check_float
        (Printf.sprintf "%s: minor words allocated over 10k lookups" sname)
        0.0 (after -. before))
    [ ("hier", fx.e_hier); ("full", fx.e_full); ("landmark", fx.e_lm) ]

(* A hier route, served or walked, allocates nothing per hop: a warmed
   route costs the same minor words whatever its length. *)
let route_words route ~src ~dst =
  ignore (route ~src ~dst);
  let before = Gc.minor_words () in
  let (o : Scheme.outcome) = route ~src ~dst in
  let after = Gc.minor_words () in
  (o.Scheme.hops, after -. before)

let check_route_alloc_flat rname route n =
  let by_hops =
    List.filter_map
      (fun (src, dst) ->
        let hops, words = route_words route ~src ~dst in
        if hops > 0 then Some (hops, words) else None)
      (all_pairs n)
  in
  let short_hops, short_words =
    List.fold_left
      (fun (h, w) (h', w') -> if h' < h then (h', w') else (h, w))
      (max_int, 0.0) by_hops
  in
  let long_hops, long_words =
    List.fold_left
      (fun (h, w) (h', w') -> if h' > h then (h', w') else (h, w))
      (0, 0.0) by_hops
  in
  check_bool
    (Printf.sprintf "%s: a route of %d hops is 3x one of %d" rname long_hops
       short_hops)
    true
    (long_hops >= 3 * short_hops);
  check_float
    (Printf.sprintf "%s minor words: %d-hop route = %d-hop route" rname
       long_hops short_hops)
    short_words long_words

let test_hier_route_alloc_flat () =
  let fx = fx_geo () in
  let n = Metric.n fx.m in
  let walked = Hier_labeled.to_underlying fx.hl in
  check_route_alloc_flat "served"
    (fun ~src ~dst -> Engine.route fx.e_hier ~src ~dst)
    n;
  check_route_alloc_flat "walked"
    (fun ~src ~dst -> Scheme.route_labeled fx.m walked ~src ~dst)
    n

(* Minor words per warmed served route of the name-independent engines
   on geo-48, over 200 sampled pairs. Before these routes stopped
   allocating per hop and per search leg, the same measurement read 988
   (simple-ni) and 984 (sf-ni) words per route in the dev profile; each
   must now take at most half. *)
let words_per_route eng pairs =
  Array.iter (fun (src, dst) -> ignore (Engine.route eng ~src ~dst)) pairs;
  let before = Gc.minor_words () in
  Array.iter (fun (src, dst) -> ignore (Engine.route eng ~src ~dst)) pairs;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int (Array.length pairs)

let test_ni_route_alloc_halved () =
  let fx = fx_geo () in
  let pairs =
    Array.of_list (Workload.sample_pairs ~n:(Metric.n fx.m) ~count:200 ~seed:5)
  in
  List.iter
    (fun (sname, eng, before) ->
      let words = words_per_route eng pairs in
      check_bool
        (Printf.sprintf "%s: %.1f words per route <= %.1f / 2" sname words
           before)
        true
        (words <= before /. 2.0))
    [ ("simple-ni", fx.e_sni, 988.3); ("sf-ni", fx.e_sfni, 984.2) ]

(* A (level, node) with no search site raises a typed error naming
   both, through either scheme's lookup. *)
let test_missing_site_named () =
  let fx = fx_geo () in
  let h = Netting_tree.hierarchy (Hier_labeled.netting_tree fx.hl) in
  let check sname (lookup : Cr_core.Ni_route.t) =
    let level = lookup.Cr_core.Ni_route.top_level in
    let top_net = Hierarchy.net h level in
    let hub =
      List.find
        (fun v -> not (List.mem v top_net))
        (List.init (Metric.n fx.m) Fun.id)
    in
    Alcotest.check_raises
      (sname ^ ": missing site")
      (Invalid_argument
         (Printf.sprintf "%s: no search site at level %d, node %d" sname level
            hub))
      (fun () -> ignore (lookup.Cr_core.Ni_route.site ~level ~hub))
  in
  check "Simple_ni" fx.sni.Ni_scheme.lookup;
  check "Scale_free_ni" (Sfni.scheme fx.sfni).Ni_scheme.lookup

(* Served scheme names match the harness names, so report check rules
   classify served rows exactly like walked rows. *)
let test_scheme_names () =
  let fx = fx_expo () in
  check_bool "hier" true
    (String.equal
       (Engine.scheme_name fx.e_hier)
       (Hier_labeled.to_underlying fx.hl).Scheme.l_name);
  check_bool "sfl" true
    (String.equal
       (Engine.scheme_name fx.e_sfl)
       (Sfl.to_underlying fx.sfl).Scheme.l_name);
  check_bool "simple-ni" true
    (String.equal
       (Engine.scheme_name fx.e_sni)
       (Simple_ni.to_scheme fx.sni).Scheme.ni_name);
  check_bool "sf-ni" true
    (String.equal
       (Engine.scheme_name fx.e_sfni)
       (Sfni.to_scheme fx.sfni).Scheme.ni_name);
  check_bool "full" true
    (String.equal (Engine.scheme_name fx.e_full) (Full_table.labeled fx.m).Scheme.l_name);
  check_bool "landmark" true
    (String.equal
       (Engine.scheme_name fx.e_lm)
       (Landmark.labeled_of fx.lm).Scheme.l_name)

(* Compiled storage stays positive and within the wire accounting. *)
let test_compiled_bits_sane () =
  let fx = fx_grid () in
  let n = Metric.n fx.m in
  List.iter
    (fun (sname, eng) ->
      for v = 0 to n - 1 do
        check_bool
          (Printf.sprintf "%s node %d: compiled bits positive" sname v)
          true
          (Engine.compiled_bits eng v > 0)
      done;
      check_bool
        (Printf.sprintf "%s: bytes per node positive" sname)
        true
        (Engine.bytes_per_node eng > 0.0))
    [ ("hier", fx.e_hier); ("sfl", fx.e_sfl); ("simple-ni", fx.e_sni);
      ("sf-ni", fx.e_sfni); ("full", fx.e_full); ("landmark", fx.e_lm) ]

(* Per-edge Cost accounting parity: serving a route with a Cost ledger
   charges exactly the edges/phases/rounds a cost-carrying walker does. *)
let test_cost_parity () =
  let fx = fx_grid () in
  let n = Metric.n fx.m in
  let budget = Walker.ni_budget n in
  List.iter
    (fun (sname, walkfn, eng) ->
      List.iter
        (fun (src, dst) ->
          let walker_cost = Cr_obs.Cost.create () in
          let w = Walker.create ~cost:walker_cost fx.m ~start:src ~max_hops:budget in
          walkfn w dst;
          let served_cost = Cr_obs.Cost.create () in
          ignore (Engine.route ~cost:served_cost eng ~src ~dst);
          Alcotest.(check string)
            (Printf.sprintf "%s (%d -> %d): cost ledgers identical" sname src
               dst)
            (Cr_obs.Cost.render walker_cost)
            (Cr_obs.Cost.render served_cost))
        (Workload.sample_pairs ~n ~count:12 ~seed:23))
    (core_schemes fx)

(* The qcheck face of the differential property: any scheme, any random
   (src, dst) — served outcome equals walked outcome exactly. *)
let qcheck_served_equals_walked =
  let outcomes = memo (fun () -> all_outcomes (fx_geo ())) in
  qcheck_case ~count:300
    "qcheck: served = walked for a random scheme and pair"
    QCheck2.Gen.(triple (int_range 0 5) small_nat small_nat)
    (fun (si, a, b) ->
      let fx = fx_geo () in
      let n = Metric.n fx.m in
      let src = a mod n and dst = b mod n in
      let _, walked, eng = List.nth (outcomes ()) si in
      same_outcome (walked ~src ~dst) (Engine.route eng ~src ~dst))

let suite =
  List.concat_map
    (fun (fname, fx) ->
      [ Alcotest.test_case
          (Printf.sprintf "%s: served = walked (all pairs, all schemes)" fname)
          `Quick
          (test_outcomes_all_pairs fname fx);
        Alcotest.test_case
          (Printf.sprintf "%s: traces byte-identical" fname)
          `Quick
          (test_traces_identical fname fx);
        Alcotest.test_case
          (Printf.sprintf "%s: next_hop = first move" fname)
          `Quick
          (test_next_hop_is_first_move fname fx) ])
    fixtures
  @ [ Alcotest.test_case "batch is pool-size invariant" `Quick
        test_batch_pool_invariance;
      Alcotest.test_case "flat lookups allocate zero minor words" `Quick
        test_zero_alloc_lookups;
      prop_cover_is_scan;
      Alcotest.test_case "hier route allocates nothing per hop" `Quick
        test_hier_route_alloc_flat;
      Alcotest.test_case "name-independent routes allocate half" `Quick
        test_ni_route_alloc_halved;
      Alcotest.test_case "missing search site is a typed error" `Quick
        test_missing_site_named;
      Alcotest.test_case "served scheme names match harness names" `Quick
        test_scheme_names;
      Alcotest.test_case "Cost ledgers identical walker vs served" `Quick
        test_cost_parity;
      qcheck_served_equals_walked;
      Alcotest.test_case "compiled bits sane" `Quick test_compiled_bits_sane ]
