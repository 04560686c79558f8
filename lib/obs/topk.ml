(* Space-Saving (Metwally et al.): at capacity, the minimum counter is
   reassigned to the arriving key and its old count becomes the new
   entry's error bound. The evicted minimum is unique under the
   (count, key) tie-break, so the sketch is a pure function of the
   stream. *)

type cell = {
  mutable c_count : int;
  mutable c_err : int;
}

type entry = {
  key : int;
  count : int;
  err : int;
}

type t = {
  cap : int;
  cells : (int, cell) Hashtbl.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Topk.create: capacity must be > 0";
  { cap = capacity; cells = Hashtbl.create capacity }

(* The (count, key)-minimal tracked entry; deterministic because the
   key component is unique. *)
let minimum t =
  Hashtbl.fold
    (fun key cell acc ->
      match acc with
      | None -> Some (key, cell)
      | Some (bk, bc) ->
        if
          cell.c_count < bc.c_count
          || (cell.c_count = bc.c_count && key < bk)
        then Some (key, cell)
        else acc)
    t.cells None

let add ?(weight = 1) t key =
  if weight <= 0 then invalid_arg "Topk.add: weight must be > 0";
  match Hashtbl.find_opt t.cells key with
  | Some cell -> cell.c_count <- cell.c_count + weight
  | None ->
    if Hashtbl.length t.cells < t.cap then
      Hashtbl.add t.cells key { c_count = weight; c_err = 0 }
    else begin
      match minimum t with
      | None -> assert false (* cap > 0 and the table is full *)
      | Some (mk, mc) ->
        Hashtbl.remove t.cells mk;
        Hashtbl.add t.cells key
          { c_count = mc.c_count + weight; c_err = mc.c_count }
    end

let cmp_entry a b =
  match Int.compare b.count a.count with
  | 0 -> (
    match Int.compare a.err b.err with 0 -> Int.compare a.key b.key | c -> c)
  | c -> c

let entries t =
  Hashtbl.fold
    (fun key c acc -> { key; count = c.c_count; err = c.c_err } :: acc)
    t.cells []
  |> List.sort cmp_entry

let top t ~k = List.filteri (fun i _ -> i < k) (entries t)
