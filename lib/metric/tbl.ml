let sorted_bindings ~cmp tbl =
  (* cr_lint: allow determinism -- the one blessed raw fold: bucket order is erased by the key sort on the next line *)
  let raw = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> cmp a b) raw

let fold_sorted ~cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~cmp tbl)
