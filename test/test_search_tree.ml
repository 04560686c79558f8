(* Tests for search trees (Definitions 3.2 / 4.2, Algorithms 1-2). *)

open Helpers
module Metric = Cr_metric.Metric
module Search_tree = Cr_search.Search_tree

let ball_members m ~center ~radius = Metric.ball m ~center ~radius

let build_plain m ~center ~radius ~pairs =
  Search_tree.build m ~epsilon:0.5 ~center ~radius
    ~members:(ball_members m ~center ~radius)
    ~level_cap:None ~pairs ~universe:(Metric.n m)

let test_spans_ball () =
  let m = grid8 () in
  let center = 27 and radius = 4.0 in
  let st = build_plain m ~center ~radius ~pairs:[] in
  Alcotest.(check (list int))
    "tree nodes = ball" (ball_members m ~center ~radius)
    (Search_tree.members st)

let test_height_bound () =
  (* Eqn (3): height <= (1 + O(eps)) r. *)
  let m = grid8 () in
  List.iter
    (fun radius ->
      let st = build_plain m ~center:27 ~radius ~pairs:[] in
      check_bool
        (Printf.sprintf "height at r=%g" radius)
        true
        (Search_tree.height_cost st <= 1.6 *. radius))
    [ 2.0; 4.0; 8.0 ]

let test_search_finds_all () =
  let m = grid8 () in
  let center = 27 and radius = 5.0 in
  let members = ball_members m ~center ~radius in
  let pairs = List.map (fun v -> (v * 3, v)) members in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:None ~pairs ~universe:(3 * Metric.n m)
  in
  List.iter
    (fun v ->
      let r = Search_tree.search st ~key:(v * 3) in
      check_bool "found" true (r.Search_tree.data = Some v))
    members

let test_search_miss () =
  let m = grid6 () in
  let st = build_plain m ~center:14 ~radius:3.0 ~pairs:[ (5, 50); (9, 90) ] in
  let r = Search_tree.search st ~key:7 in
  check_bool "miss" true (r.Search_tree.data = None)

let test_search_legs_roundtrip () =
  (* Algorithm 2 reports back to the root: legs must start and end at the
     center and be contiguous. *)
  let m = grid8 () in
  let center = 27 and radius = 5.0 in
  let members = ball_members m ~center ~radius in
  let pairs = List.map (fun v -> (v, v)) members in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:None ~pairs ~universe:(Metric.n m)
  in
  List.iter
    (fun key ->
      let r = Search_tree.search st ~key in
      match r.Search_tree.legs with
      | [] -> ()  (* stored at the root itself *)
      | legs ->
        let first = List.hd legs in
        let last = List.nth legs (List.length legs - 1) in
        check_int "starts at center" center first.Search_tree.src;
        check_int "ends at center" center last.Search_tree.dst;
        ignore
          (List.fold_left
             (fun pos (l : Search_tree.leg) ->
               check_int "contiguous" pos l.Search_tree.src;
               l.Search_tree.dst)
             center legs))
    (List.map fst pairs)

let test_load_balanced () =
  (* Algorithm 1: k pairs over m nodes -> ceil(k/m) pairs per node max. *)
  let m = grid8 () in
  let center = 27 and radius = 5.0 in
  let members = ball_members m ~center ~radius in
  let pairs = List.init 64 (fun i -> (i, i)) in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:None ~pairs ~universe:64
  in
  let bound =
    (64 + List.length members - 1) / List.length members
  in
  List.iter
    (fun v ->
      check_bool "load bound" true (Search_tree.load st v <= bound))
    members

(* A key-space tree stores an inserted key where Algorithm 1 deals it:
   inserting every key of the universe gives the loads and descents of
   the tree built with all of them as pairs. *)
let test_keyspace_deals_inserts () =
  let m = grid8 () in
  let center = 27 and radius = 5.0 and universe = 40 in
  let members = ball_members m ~center ~radius in
  let empty =
    Search_tree.build_keyspace m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:None ~universe
  in
  let full =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:None ~pairs:(List.init universe (fun k -> (k, k))) ~universe
  in
  for key = 0 to universe - 1 do
    let legs = Search_tree.insert empty ~key ~data:key in
    check_bool
      (Printf.sprintf "key %d: same descent" key)
      true
      (legs = (Search_tree.search full ~key).Search_tree.legs)
  done;
  List.iter
    (fun v ->
      check_int (Printf.sprintf "load at %d" v) (Search_tree.load full v)
        (Search_tree.load empty v))
    members;
  check_bool "keys below the root" true
    (Search_tree.load empty center < universe)

let test_degree_bounded () =
  let m = grid8 () in
  let st = build_plain m ~center:27 ~radius:6.0 ~pairs:[] in
  (* Lemma 2.2-style bound: degree is a constant for fixed eps on a grid *)
  check_bool "degree bounded" true (Search_tree.max_degree st <= 64)

let test_capped_variant_chains () =
  (* Force truncation with a tiny level cap on a wide ball: the capped tree
     must still span the ball, mark chain edges, and search must still
     find every pair. *)
  let m = grid8 () in
  let center = 27 and radius = 8.0 in
  let members = ball_members m ~center ~radius in
  let pairs = List.map (fun v -> (v, v + 1000)) members in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:(Some 1) ~pairs ~universe:2000
  in
  Alcotest.(check (list int)) "spans ball" members (Search_tree.members st);
  let chained =
    List.filter (fun v -> Search_tree.is_chained st v) members
  in
  check_bool "some chain edges exist" true (chained <> []);
  List.iter
    (fun v ->
      let r = Search_tree.search st ~key:v in
      check_bool "capped search finds" true (r.Search_tree.data = Some (v + 1000)))
    members

let test_chain_legs_have_fixed_cost () =
  let m = grid8 () in
  let center = 27 and radius = 8.0 in
  let members = ball_members m ~center ~radius in
  let pairs = List.map (fun v -> (v, v)) members in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:(Some 1) ~pairs ~universe:(Metric.n m)
  in
  let expected = 2.0 *. 0.5 *. radius /. float_of_int (Metric.n m) in
  List.iter
    (fun v ->
      let r = Search_tree.search st ~key:v in
      List.iter
        (fun (l : Search_tree.leg) ->
          match l.Search_tree.chained_cost with
          | Some c -> check_float "chain cost 2 eps r / n" expected c
          | None -> ())
        r.Search_tree.legs)
    members

let test_duplicate_keys_rejected () =
  let m = grid6 () in
  Alcotest.check_raises "duplicate keys"
    (Invalid_argument "Search_tree.build: duplicate keys") (fun () ->
      ignore (build_plain m ~center:14 ~radius:3.0 ~pairs:[ (1, 1); (1, 2) ]))

let test_small_ball_degenerate () =
  (* eps * r below the minimum distance: the tree is a star on the ball. *)
  let m = grid6 () in
  let st = build_plain m ~center:14 ~radius:1.0 ~pairs:[ (3, 33) ] in
  check_int "spans" 5 (List.length (Search_tree.members st));
  let r = Search_tree.search st ~key:3 in
  check_bool "finds" true (r.Search_tree.data = Some 33)

let gen_params =
  QCheck2.Gen.(
    let* n = int_range 10 48 in
    let* seed = int_range 0 5_000 in
    let* center_pick = int_range 0 1000 in
    let* radius = float_range 1.0 12.0 in
    return (n, seed, center_pick, radius))

let prop_search_total =
  qcheck_case ~count:25 "search tree: every stored key is found" gen_params
    (fun (n, seed, center_pick, radius) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let center = center_pick mod n in
      let members = Metric.ball m ~center ~radius in
      let pairs = List.map (fun v -> (v, v * 2)) members in
      let st =
        Search_tree.build m ~epsilon:0.4 ~center ~radius ~members
          ~level_cap:None ~pairs ~universe:(2 * n)
      in
      List.for_all
        (fun v ->
          (Search_tree.search st ~key:v).Search_tree.data = Some (v * 2))
        members)

let prop_search_cost_bounded =
  qcheck_case ~count:25 "search tree: leg cost <= 2(1+O(eps)) r" gen_params
    (fun (n, seed, center_pick, radius) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let center = center_pick mod n in
      let members = Metric.ball m ~center ~radius in
      let pairs = List.map (fun v -> (v, v)) members in
      let st =
        Search_tree.build m ~epsilon:0.4 ~center ~radius ~members
          ~level_cap:None ~pairs ~universe:n
      in
      List.for_all
        (fun v ->
          let r = Search_tree.search st ~key:v in
          let cost =
            List.fold_left
              (fun acc (l : Search_tree.leg) ->
                acc
                +.
                match l.Search_tree.chained_cost with
                | Some c -> c
                | None -> Metric.dist m l.Search_tree.src l.Search_tree.dst)
              0.0 r.Search_tree.legs
          in
          cost <= 2.0 *. 1.6 *. radius +. 1e-9)
        members)

(* The fused walk against the leg list it replaces: the same jump/goto
   calls in the same order, and the same data. *)
type move = Jump of int * float | Goto of int

let recorder () =
  let moves = ref [] in
  ( (fun v w -> moves := Jump (v, w) :: !moves),
    (fun v -> moves := Goto v :: !moves),
    fun () -> List.rev !moves )

let walk_matches_search st ~key =
  let jump, goto, walked = recorder () in
  let data = Search_tree.walk st ~key ~jump ~goto in
  let jump', goto', paid = recorder () in
  let r = Search_tree.search st ~key in
  Search_tree.pay r.Search_tree.legs ~jump:jump' ~goto:goto';
  data = r.Search_tree.data && walked () = paid ()

let gen_walk =
  QCheck2.Gen.(
    let* params = gen_params in
    let* cap = opt (int_range 1 2) in
    let* ops = list_size (int_range 0 12) (pair bool (int_range 0 120)) in
    return (params, cap, ops))

let prop_walk_is_paid_search =
  qcheck_case ~count:40
    "search tree: walk pays exactly the legs of search (Def 3.2 and 4.2)"
    gen_walk
    (fun ((n, seed, center_pick, radius), level_cap, ops) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let center = center_pick mod n in
      (* a wide ball, so a level cap of 1 or 2 leaves chained leftovers *)
      let radius = 2.0 *. radius in
      let members = Metric.ball m ~center ~radius in
      let pairs = List.map (fun v -> (2 * v, v)) members in
      let st =
        Search_tree.build m ~epsilon:0.4 ~center ~radius ~members ~level_cap
          ~pairs ~universe:(4 * n)
      in
      (* odd keys are absent until inserted; even ones present until
         removed *)
      List.iter
        (fun (ins, key) ->
          if ins then
            (try ignore (Search_tree.insert st ~key ~data:(-key))
             with Invalid_argument _ -> ())
          else ignore (Search_tree.remove st ~key))
        ops;
      List.for_all
        (fun key -> walk_matches_search st ~key)
        (List.init ((2 * n) + 4) (fun k -> k - 2)))

(* The same on a fixed Definition 4.2 tree that certainly has chains,
   before and after dynamic changes. *)
let test_walk_on_chained_tree () =
  let m = grid8 () in
  let center = 27 and radius = 8.0 in
  let members = ball_members m ~center ~radius in
  let st =
    Search_tree.build m ~epsilon:0.5 ~center ~radius ~members
      ~level_cap:(Some 1)
      ~pairs:(List.map (fun v -> (2 * v, v)) members)
      ~universe:256
  in
  check_bool "has chain edges" true
    (List.exists (fun v -> Search_tree.is_chained st v) members);
  let all_keys = List.init 140 (fun k -> k - 2) in
  let check what =
    List.iter
      (fun key ->
        check_bool
          (Printf.sprintf "%s: key %d" what key)
          true
          (walk_matches_search st ~key))
      all_keys
  in
  check "as built";
  List.iter
    (fun v -> ignore (Search_tree.insert st ~key:((2 * v) + 1) ~data:v))
    members;
  List.iter (fun v -> ignore (Search_tree.remove st ~key:(2 * v))) members;
  check "after insert/remove"

let test_non_member_errors () =
  let m = grid6 () in
  let st = build_plain m ~center:14 ~radius:2.0 ~pairs:[ (3, 33) ] in
  let outside =
    List.find
      (fun v -> not (List.mem v (Search_tree.members st)))
      (List.init (Metric.n m) Fun.id)
  in
  List.iter
    (fun (what, f) ->
      Alcotest.check_raises what
        (Invalid_argument
           (Printf.sprintf
              "Search_tree.%s: node %d is not a member of the tree centred at \
               14"
              what outside))
        (fun () -> f st outside))
    [ ("load", fun st v -> ignore (Search_tree.load st v));
      ("table_bits", fun st v -> ignore (Search_tree.table_bits st v));
      ("parent", fun st v -> ignore (Search_tree.parent st v)) ];
  check_bool "the center has no parent" true (Search_tree.parent st 14 = None)

let suite =
  [ Alcotest.test_case "spans ball" `Quick test_spans_ball;
    Alcotest.test_case "height bound (Eqn 3)" `Quick test_height_bound;
    Alcotest.test_case "search finds all pairs" `Quick test_search_finds_all;
    Alcotest.test_case "search miss" `Quick test_search_miss;
    Alcotest.test_case "legs roundtrip at root" `Quick
      test_search_legs_roundtrip;
    Alcotest.test_case "load balanced (Alg 1)" `Quick test_load_balanced;
    Alcotest.test_case "key-space tree stores inserts as Alg 1 deals them"
      `Quick test_keyspace_deals_inserts;
    Alcotest.test_case "degree bounded" `Quick test_degree_bounded;
    Alcotest.test_case "capped variant chains (Def 4.2)" `Quick
      test_capped_variant_chains;
    Alcotest.test_case "chain legs fixed cost" `Quick
      test_chain_legs_have_fixed_cost;
    Alcotest.test_case "duplicate keys rejected" `Quick
      test_duplicate_keys_rejected;
    Alcotest.test_case "degenerate small ball" `Quick
      test_small_ball_degenerate;
    prop_search_total;
    prop_search_cost_bounded;
    prop_walk_is_paid_search;
    Alcotest.test_case "walk = paid search on a chained tree" `Quick
      test_walk_on_chained_tree;
    Alcotest.test_case "non-members are typed errors" `Quick
      test_non_member_errors ]
