module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker

let walk nt w ~dest_label =
  let top = Hierarchy.top_level (Netting_tree.hierarchy nt) in
  let dest = Netting_tree.node_of_label nt dest_label in
  (* Climb: walk the current node's zooming sequence to the root. *)
  let start = Walker.position w in
  for i = 1 to top do
    Walker.walk_shortest_path w (Netting_tree.ancestor nt start ~level:i)
  done;
  (* Descend: at each level pick the child whose range covers the label. *)
  let rec descend level x =
    if level = 0 then assert (x = dest)
    else begin
      let child =
        List.find
          (fun y ->
            Netting_tree.in_range
              (Netting_tree.range nt ~level:(level - 1) y)
              dest_label)
          (Netting_tree.children nt ~level x)
      in
      Walker.walk_shortest_path w child;
      descend (level - 1) child
    end
  in
  descend top (Walker.position w)
