
let of_string s =
  let malformed line_no what =
    invalid_arg (Printf.sprintf "Graph_io.of_string: line %d: %s" line_no what)
  in
  let lines = String.split_on_char '\n' s in
  let graph = ref None in
  List.iteri
    (fun idx raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        let line_no = idx + 1 in
        match !graph with
        | None ->
          (match int_of_string_opt line with
          | Some n when n > 0 -> graph := Some (Graph.create n)
          | _ -> malformed line_no "expected a positive node count")
        | Some g ->
          (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ u; v; w ] ->
            (match
               (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w)
             with
            | Some u, Some v, Some w ->
              (try Graph.add_edge g u v w
               with Invalid_argument msg -> malformed line_no msg)
            | _ -> malformed line_no "expected 'u v w'")
          | _ -> malformed line_no "expected 'u v w'")
      end)
    lines;
  match !graph with
  | Some g -> g
  | None -> invalid_arg "Graph_io.of_string: empty input"

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
