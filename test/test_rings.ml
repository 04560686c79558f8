(* Direct tests for the rings module (X_i(u), R(u)) — Section 4.1. *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Rings = Cr_core.Rings
module Bits = Cr_metric.Bits
module Pool = Cr_par.Pool
module Table_codec = Cr_codec.Table_codec

let build ?(mode = Rings.Selected) m =
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  (Rings.build nt ~epsilon:0.5 ~mode, nt, h)

let test_effective_epsilon_clamped () =
  let m = grid6 () in
  let rings, _, _ = build m in
  check_float "clamped to 1/6" (1.0 /. 6.0) (Rings.effective_epsilon rings);
  let nt = Netting_tree.build (Hierarchy.build m) in
  let tight = Rings.build nt ~epsilon:0.05 ~mode:Rings.Selected in
  check_float "small eps kept" 0.05 (Rings.effective_epsilon tight)

let test_all_levels_mode () =
  let m = grid6 () in
  let rings, _, h = build ~mode:Rings.All_levels m in
  let top = Hierarchy.top_level h in
  for u = 0 to Metric.n m - 1 do
    Alcotest.(check (list int))
      "R(u) = all levels"
      (List.init (top + 1) Fun.id)
      (Rings.selected_levels rings u)
  done

let test_selected_subset_of_all () =
  let m = holey () in
  let rings, _, h = build m in
  let top = Hierarchy.top_level h in
  for u = 0 to Metric.n m - 1 do
    let levels = Rings.selected_levels rings u in
    check_bool "levels sorted and in range" true
      (List.sort compare levels = levels
      && List.for_all (fun i -> i >= 0 && i <= top) levels);
    check_bool "R(u) nonempty" true (levels <> [])
  done

let test_ring_members_are_net_points_in_radius () =
  let m = grid8 () in
  let rings, _, h = build m in
  let eps = Rings.effective_epsilon rings in
  for u = 0 to Metric.n m - 1 do
    List.iter
      (fun level ->
        let radius = Float.pow 2.0 (float_of_int level) /. eps in
        List.iter
          (fun x ->
            check_bool "member in net" true (Hierarchy.mem h ~level x);
            check_bool "member within ring radius" true
              (Metric.dist m u x <= radius +. 1e-9))
          (Rings.ring rings u ~level))
      (Rings.selected_levels rings u)
  done

let test_cover_is_zoom_ancestor () =
  (* a ring member at level i whose range covers the destination's label
     must be the destination's zoom ancestor v(i) (by the netting-tree
     range property), and so must the store's minimal cover *)
  let m = grid6 () in
  let rings, nt, h = build m in
  let z = Zoom.build h in
  let n = Metric.n m in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let label = Netting_tree.label nt v in
      List.iter
        (fun (l : Table_codec.ring_level) ->
          List.iter
            (fun (x : Table_codec.ring_entry) ->
              if x.range_lo <= label && label <= x.range_hi then
                check_int "covering member = v(level)"
                  (Zoom.step z v l.level) x.member)
            l.entries)
        (Rings.levels_of rings u);
      let e = Rings.cover rings ~at:u ~label in
      check_int "cover = v(level)"
        (Zoom.step z v (Rings.entry_level rings e))
        (Rings.entry_member rings e)
    done
  done

let test_cover_minimality () =
  let m = grid6 () in
  let rings, nt, _ = build m in
  let n = Metric.n m in
  for u = 0 to n - 1 do
    let levels = Rings.levels_of rings u in
    for v = 0 to n - 1 do
      let label = Netting_tree.label nt v in
      let e = Rings.cover rings ~at:u ~label in
      if e < 0 then Alcotest.fail "cover must exist for reachable labels";
      let level = Rings.entry_level rings e in
      let covers (l : Table_codec.ring_level) =
        List.exists
          (fun (x : Table_codec.ring_entry) ->
            x.range_lo <= label && label <= x.range_hi)
          l.entries
      in
      let r = Netting_tree.range nt ~level (Rings.entry_member rings e) in
      check_bool "witness covers" true (Netting_tree.in_range r label);
      (* no smaller selected level covers *)
      List.iter
        (fun (l : Table_codec.ring_level) ->
          if l.level < level then
            check_bool "minimality" false (covers l))
        levels
    done
  done

let test_ring_errors () =
  let m = grid6 () in
  let rings, _, _ = build m in
  (* level 3 may or may not be selected at node 0; find an unselected one *)
  let unselected =
    List.find_opt
      (fun i -> not (List.mem i (Rings.selected_levels rings 0)))
      (List.init 5 Fun.id)
  in
  match unselected with
  | Some level ->
    Alcotest.check_raises "ring on unselected level"
      (Invalid_argument "Rings.ring: level not selected at this node")
      (fun () -> ignore (Rings.ring rings 0 ~level))
  | None -> ()  (* all levels selected on this tiny grid: nothing to check *)

let test_table_bits_positive_and_additive () =
  let m = holey () in
  let rings, _, _ = build m in
  for u = 0 to Metric.n m - 1 do
    check_bool "bits positive" true (Rings.table_bits rings u > 0)
  done

(* R(u) from the paper's formula, written out: level i is selected iff
   some j in [0, ceil log2 n] has (eps/6) r_u(2^j) <= 2^i <= r_u(2^j),
   with the ball size 2^j clamped at n. *)
let paper_levels m ~eps_eff ~top u =
  let n = Metric.n m in
  List.filter
    (fun i ->
      let two_i = Float.pow 2.0 (float_of_int i) in
      List.exists
        (fun j ->
          let r = Metric.radius_of_size m u (min (1 lsl j) n) in
          (eps_eff /. 6.0) *. r <= two_i && two_i <= r)
        (List.init (Bits.ceil_log2 n + 1) Fun.id))
    (List.init (top + 1) Fun.id)

let pool1 = memo (fun () -> Pool.create ~domains:1 ())
let pool4 = memo (fun () -> Pool.create ~domains:4 ())

(* The ring construction against brute force, in both modes: R(u) by
   the formula (every level in All_levels), X_i(u) as the net points of
   Y_i within 2^i / eps_eff in increasing id order, each entry's range
   and next hop from the netting tree and the metric, and a wire view
   that does not depend on the pool size. *)
let prop_rings_brute_force =
  qcheck_case ~count:30 "rings = brute force (both modes, pool 1 and 4)"
    cover_family_gen (fun params ->
      let m = Metric.of_graph (cover_family_graph params) in
      let n = Metric.n m in
      let h = Hierarchy.build m in
      let nt = Netting_tree.build h in
      let top = Hierarchy.top_level h in
      let eps_eff = Float.min 0.5 (1.0 /. 6.0) in
      List.for_all
        (fun mode ->
          let rings = Rings.build ~pool:(pool1 ()) nt ~epsilon:0.5 ~mode in
          let rings4 = Rings.build ~pool:(pool4 ()) nt ~epsilon:0.5 ~mode in
          List.for_all
            (fun u ->
              let levels =
                match mode with
                | Rings.All_levels -> List.init (top + 1) Fun.id
                | Rings.Selected -> paper_levels m ~eps_eff ~top u
              in
              let members i =
                let radius = Float.pow 2.0 (float_of_int i) /. eps_eff in
                List.filter
                  (fun x ->
                    Hierarchy.mem h ~level:i x && Metric.dist m u x <= radius)
                  (List.init n Fun.id)
              in
              let entry_ok level (e : Table_codec.ring_entry) =
                let r = Netting_tree.range nt ~level e.member in
                e.range_lo = r.Netting_tree.lo
                && e.range_hi = r.Netting_tree.hi
                && e.next_hop
                   = (if e.member = u then u
                      else Metric.next_hop m ~src:u ~dst:e.member)
              in
              let wire = Rings.levels_of rings u in
              Rings.selected_levels rings u = levels
              && List.for_all
                   (fun i -> Rings.ring rings u ~level:i = members i)
                   levels
              && List.map (fun (l : Table_codec.ring_level) -> l.level) wire
                 = levels
              && List.for_all
                   (fun (l : Table_codec.ring_level) ->
                     List.map (fun (e : Table_codec.ring_entry) -> e.member)
                       l.entries
                     = members l.level
                     && List.for_all (entry_ok l.level) l.entries)
                   wire
              && wire = Rings.levels_of rings4 u)
            (List.init n Fun.id))
        [ Rings.All_levels; Rings.Selected ])

let suite =
  [ Alcotest.test_case "effective epsilon" `Quick
      test_effective_epsilon_clamped;
    Alcotest.test_case "all-levels mode" `Quick test_all_levels_mode;
    Alcotest.test_case "selected levels valid" `Quick
      test_selected_subset_of_all;
    Alcotest.test_case "ring members valid" `Quick
      test_ring_members_are_net_points_in_radius;
    Alcotest.test_case "cover = zoom ancestor" `Quick
      test_cover_is_zoom_ancestor;
    Alcotest.test_case "cover minimality" `Quick test_cover_minimality;
    Alcotest.test_case "ring errors" `Quick test_ring_errors;
    Alcotest.test_case "table bits" `Quick
      test_table_bits_positive_and_additive;
    prop_rings_brute_force ]
