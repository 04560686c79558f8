module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Ball_packing = Cr_packing.Ball_packing
module Search_tree = Cr_search.Search_tree

type finding = {
  check : string;
  detail : string;
}

let pp ppf f = Format.fprintf ppf "%s: %s" f.check f.detail

let finding check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

let hierarchy m h =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let top = Hierarchy.top_level h in
  let n = Metric.n m in
  if List.length (Hierarchy.net h top) <> 1 then
    add (finding "hierarchy" "top net is not a singleton");
  if List.length (Hierarchy.net h 0) <> n then
    add (finding "hierarchy" "level 0 is not all of V");
  for i = 0 to top - 1 do
    List.iter
      (fun v ->
        if not (Hierarchy.mem h ~level:i v) then
          add (finding "hierarchy" "Y_%d member %d missing from Y_%d" (i + 1) v i))
      (Hierarchy.net h (i + 1))
  done;
  for i = 1 to top do
    let r = Hierarchy.net_radius i in
    let net = Hierarchy.net h i in
    List.iter
      (fun y ->
        List.iter
          (fun y' ->
            if y < y' && Metric.dist m y y' < r -. 1e-9 then
              add
                (finding "hierarchy" "packing violated at level %d: d(%d,%d)=%g < %g"
                   i y y' (Metric.dist m y y') r))
          net)
      net;
    for v = 0 to n - 1 do
      let nearest = Hierarchy.nearest_net_point h ~level:i v in
      if Metric.dist m v nearest > r +. 1e-9 then
        add
          (finding "hierarchy" "covering violated at level %d: node %d is %g away"
             i v (Metric.dist m v nearest))
    done
  done;
  List.rev !findings

(* Eqn (2) along each leaf's ancestor row: the climb to level i, summed
   step by step, costs less than 2^(i+1). *)
let zoom_sequences m nt =
  let findings = ref [] in
  let top = Hierarchy.top_level (Netting_tree.hierarchy nt) in
  for u = 0 to Metric.n m - 1 do
    let climb = ref 0.0 in
    for i = 0 to top do
      if i > 0 then
        climb :=
          !climb
          +. Metric.dist m
               (Netting_tree.ancestor nt u ~level:(i - 1))
               (Netting_tree.ancestor nt u ~level:i);
      let bound = Float.pow 2.0 (float_of_int (i + 1)) in
      if !climb >= bound then
        findings :=
          finding "zoom" "Eqn 2 violated: climb(%d, %d) = %g >= %g" u i
            !climb bound
          :: !findings
    done
  done;
  List.rev !findings

let netting_tree m nt =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let h = Netting_tree.hierarchy nt in
  (* recompute zooming sequences from the metric under test, not from the
     hierarchy's cached nearest tables, so inconsistencies are caught *)
  let top = Hierarchy.top_level h in
  let zoom_step u =
    let steps = Array.make (top + 1) u in
    for i = 1 to top do
      steps.(i) <- Metric.nearest_in m steps.(i - 1) (Hierarchy.net h i)
    done;
    steps
  in
  let n = Metric.n m in
  let seen = Array.make n false in
  for v = 0 to n - 1 do
    let l = Netting_tree.label nt v in
    if l < 0 || l >= n then add (finding "netting" "label %d out of range" l)
    else if seen.(l) then add (finding "netting" "duplicate label %d" l)
    else begin
      seen.(l) <- true;
      if Netting_tree.node_of_label nt l <> v then
        add (finding "netting" "label inverse broken at %d" v)
    end
  done;
  for u = 0 to n - 1 do
    let l = Netting_tree.label nt u in
    let steps = zoom_step u in
    for i = 0 to top do
      (* the path routes climb: the stored ancestor row, and the parent
         pointers from the leaf up *)
      if Netting_tree.ancestor nt u ~level:i <> steps.(i) then
        add (finding "netting" "ancestor mismatch: u=%d level=%d" u i);
      if i < top && Netting_tree.parent nt ~level:i steps.(i) <> steps.(i + 1)
      then add (finding "netting" "parent mismatch: u=%d level=%d" u i);
      List.iter
        (fun x ->
          let covers =
            Netting_tree.in_range (Netting_tree.range nt ~level:i x) l
          in
          if covers <> (steps.(i) = x) then
            add
              (finding "netting" "range/zoom mismatch: u=%d level=%d x=%d" u i x))
        (Hierarchy.net h i)
    done
  done;
  List.rev !findings

let packings m =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  Array.iter
    (fun lv ->
      let j = Ball_packing.size_exponent lv in
      let taken = Hashtbl.create 64 in
      List.iter
        (fun (b : Ball_packing.ball) ->
          if Array.length b.members <> 1 lsl j then
            add
              (finding "packing" "ball at %d has %d members, wanted 2^%d"
                 b.center (Array.length b.members) j);
          Array.iter
            (fun v ->
              if Hashtbl.mem taken v then
                add (finding "packing" "node %d in two balls at scale %d" v j)
              else Hashtbl.replace taken v ())
            b.members)
        (Ball_packing.balls lv);
      for u = 0 to Metric.n m - 1 do
        let r_u = Metric.radius_of_size m u (1 lsl j) in
        let w = Ball_packing.covering_ball lv u in
        if w.radius > r_u +. 1e-9 then
          add
            (finding "packing" "witness radius at %d scale %d: %g > %g" u j
               w.radius r_u);
        if Metric.dist m u w.center > (2.0 *. r_u) +. 1e-9 then
          add
            (finding "packing" "witness distance at %d scale %d: %g > 2*%g" u
               j (Metric.dist m u w.center) r_u)
      done)
    (Ball_packing.build_all m)
  |> ignore;
  List.rev !findings

let search_tree m st ~radius =
  ignore m;
  let findings = ref [] in
  let allowance = 1.0 +. 0.5 +. 0.1 (* eps <= 0.5 plus chain tails *) in
  if Search_tree.height_cost st > allowance *. Float.max radius 1.0 then
    findings :=
      finding "search-tree" "height %g exceeds (1+O(eps)) r = %g"
        (Search_tree.height_cost st)
        (allowance *. radius)
      :: !findings;
  List.iter
    (fun key ->
      if (Search_tree.search st ~key).Search_tree.data = None then
        findings :=
          finding "search-tree" "stored key %d not retrievable" key
          :: !findings)
    (Search_tree.keys st);
  List.rev !findings

let all m =
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let structure =
    hierarchy m h @ zoom_sequences m nt @ netting_tree m nt @ packings m
  in
  (* one representative search tree per scale band *)
  let trees =
    List.filter_map
      (fun radius ->
        if radius <= Metric.diameter m then begin
          let members = Metric.ball m ~center:0 ~radius in
          let pairs = List.map (fun v -> (v, v)) members in
          let st =
            Search_tree.build m ~epsilon:0.5 ~center:0 ~radius ~members
              ~level_cap:None ~pairs ~universe:(Metric.n m)
          in
          Some (search_tree m st ~radius)
        end
        else None)
      [ 2.0; 8.0; Metric.diameter m /. 2.0 ]
  in
  structure @ List.concat trees
