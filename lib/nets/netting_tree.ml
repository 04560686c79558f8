type range = { lo : int; hi : int }

type t = {
  hierarchy : Hierarchy.t;
  width : int;  (* top + 1 *)
  ancestors : int array;  (* u * width + i -> u(i) *)
  labels : int array;  (* labels.(v) = l(v) *)
  label_owner : int array;  (* inverse of labels *)
  ranges : range array array;  (* ranges.(i).(x); {lo=-1; hi=-1} if absent *)
  kids : int list array array;  (* kids.(i).(x) = children at level i-1 *)
}

let absent = { lo = -1; hi = -1 }

let build ?obs h =
  Cr_obs.Trace.span (Cr_obs.Trace.resolve obs) "netting_tree.build"
  @@ fun () ->
  let m = Hierarchy.metric h in
  let n = Cr_metric.Metric.n m in
  let top = Hierarchy.top_level h in
  let width = top + 1 in
  (* Each leaf's zooming sequence, u(0) = u and u(i) the node of Y_i
     nearest to u(i-1): its path to the root. *)
  let ancestors = Array.make (n * width) 0 in
  for u = 0 to n - 1 do
    let row = u * width in
    ancestors.(row) <- u;
    for i = 1 to top do
      ancestors.(row + i) <-
        Hierarchy.nearest_net_point h ~level:i ancestors.(row + i - 1)
    done
  done;
  (* A net point x of Y_i is its own ancestor at level i, and its parent
     is its ancestor at level i + 1. *)
  let kids = Array.init (top + 1) (fun _ -> Array.make n []) in
  for i = 0 to top - 1 do
    List.iter
      (fun x ->
        let p = ancestors.((x * width) + i + 1) in
        kids.(i + 1).(p) <- x :: kids.(i + 1).(p))
      (Hierarchy.net h i)
  done;
  (* Children were accumulated in reverse id order; restore increasing. *)
  Array.iter (fun per_node -> Array.iteri (fun x l -> per_node.(x) <- List.rev l) per_node) kids;
  let labels = Array.make n (-1) in
  let label_owner = Array.make n (-1) in
  let ranges = Array.init (top + 1) (fun _ -> Array.make n absent) in
  let next_label = ref 0 in
  (* DFS assigning leaf labels and subtree ranges; depth is at most top+1 so
     recursion is safe. *)
  let rec visit level x =
    if level = 0 then begin
      let l = !next_label in
      incr next_label;
      labels.(x) <- l;
      label_owner.(l) <- x;
      ranges.(0).(x) <- { lo = l; hi = l }
    end
    else begin
      let lo = !next_label in
      List.iter (fun y -> visit (level - 1) y) kids.(level).(x);
      ranges.(level).(x) <- { lo; hi = !next_label - 1 }
    end
  in
  (match Hierarchy.net h top with
  | [ root ] -> visit top root
  | _ -> invalid_arg "Netting_tree.build: top net is not a singleton");
  assert (!next_label = n);
  { hierarchy = h; width; ancestors; labels; label_owner; ranges; kids }

let hierarchy t = t.hierarchy
let label t v = t.labels.(v)
let node_of_label t l = t.label_owner.(l)

let ancestor t u ~level =
  if level < 0 || level >= t.width then
    invalid_arg "Netting_tree.ancestor: level out of range";
  t.ancestors.((u * t.width) + level)

let range t ~level x =
  let r = t.ranges.(level).(x) in
  if r.lo < 0 then invalid_arg "Netting_tree.range: not a net point";
  r

let in_range r l = r.lo <= l && l <= r.hi

let parent t ~level x =
  if level >= Hierarchy.top_level t.hierarchy then
    invalid_arg "Netting_tree.parent: top level has no parent";
  if not (Hierarchy.mem t.hierarchy ~level x) then
    invalid_arg "Netting_tree.parent: not a net point";
  ancestor t x ~level:(level + 1)

let children t ~level x =
  if level = 0 then []
  else t.kids.(level).(x)
