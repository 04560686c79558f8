(* Tests for route node sequences (read back from a traced walker's hop
   events) and the DOT/CSV exporters. *)

open Helpers
module Metric = Cr_metric.Metric
module Walker = Cr_sim.Walker
module Export = Cr_sim.Export
module Route_trace = Cr_core.Route_trace

(* The node sequence of the route [walk] takes from [src]. *)
let nodes_of m ~src ~dst walk =
  let t = Route_trace.capture m ~max_hops:100 ~src ~dst ~walk in
  Route_trace.nodes ~src t.Route_trace.events

let test_trail_records_steps () =
  let m = grid6 () in
  let trail =
    nodes_of m ~src:0 ~dst:20 (fun w ->
        Walker.step w 1;
        Walker.step w 2;
        Walker.teleport w 20 ~cost:3.0)
  in
  Alcotest.(check (list int)) "trail" [ 0; 1; 2; 20 ] trail

let test_trail_shortest_path_is_contiguous () =
  let m = grid6 () in
  let g = Metric.graph m in
  let trail =
    nodes_of m ~src:0 ~dst:35 (fun w -> Walker.walk_shortest_path w 35)
  in
  check_int "starts at 0" 0 (List.hd trail);
  check_int "ends at 35" 35 (List.nth trail (List.length trail - 1));
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      Cr_metric.Graph.edge_weight g a b <> None && adjacent rest
    | _ -> true
  in
  check_bool "all consecutive adjacent" true (adjacent trail)

let test_dot_output () =
  let m = grid6 () in
  let route =
    nodes_of m ~src:0 ~dst:8 (fun w -> Walker.walk_shortest_path w 8)
  in
  let dot = Export.dot_of_graph m ~route () in
  check_bool "is a graph" true
    (String.length dot > 0
    && String.sub dot 0 13 = "graph network");
  check_bool "route highlighted" true
    (let rec contains i =
       i + 10 <= String.length dot
       && (String.sub dot i 10 = "color=blue" || contains (i + 1))
     in
     contains 0);
  check_bool "endpoints marked" true
    (let has needle =
       let nl = String.length needle in
       let rec go i =
         i + nl <= String.length dot
         && (String.sub dot i nl = needle || go (i + 1))
       in
       go 0
     in
     has "fillcolor=green" && has "fillcolor=red")

let test_dot_without_route () =
  let m = triangle () in
  let dot = Export.dot_of_graph m () in
  (* 3 edges => 3 "--" connectors *)
  let count =
    let rec go i acc =
      if i + 2 > String.length dot then acc
      else if String.sub dot i 2 = "--" then go (i + 2) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_int "edges rendered" 3 count

let test_csv_route () =
  let m = grid6 () in
  let csv = Export.csv_of_route m [ 0; 1; 7; 20 ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 4 rows" 5 (List.length lines);
  check_bool "teleport flagged" true
    (List.exists (fun l -> String.length l > 4 &&
       String.sub l (String.length l - 4) 4 = "true") lines)

let suite =
  [ Alcotest.test_case "trail records steps" `Quick test_trail_records_steps;
    Alcotest.test_case "trail contiguous on shortest path" `Quick
      test_trail_shortest_path_is_contiguous;
    Alcotest.test_case "dot with route" `Quick test_dot_output;
    Alcotest.test_case "dot without route" `Quick test_dot_without_route;
    Alcotest.test_case "csv route" `Quick test_csv_route ]
