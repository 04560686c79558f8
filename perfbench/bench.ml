(* Benchmark entry point: runs one workload and prints its figures.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--size full|toy] [--chrome FILE] [--rev REV]

   The last line of standard output is one JSON object: correct,
   attempted, failed, the end-to-end metrics, the per-layer metrics
   (traced runs only), the self-time table, and provenance. perfbench/run.py
   turns it into the benchmark's result line. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--size full|toy] [--chrome FILE] [--rev REV]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  fun ?default k ->
    match (Hashtbl.find_opt tbl k, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> usage ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.0

let json_num x = Cr_obs.Sinks.json_float x
let json_str = Cr_obs.Sinks.json_string

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let global_trace_null () = not (Cr_obs.Trace.enabled (Cr_obs.Trace.get_global ()))

let () =
  let arg = parse Sys.argv in
  let workload = arg "workload" in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let traced =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let size =
    match arg ~default:"full" "size" with
    | "full" -> Workloads.full
    | "toy" -> Workloads.toy
    | _ -> usage ()
  in
  let run =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
      prerr_endline
        ("unknown workload " ^ workload ^ "; known: "
        ^ String.concat ", " (List.map fst Workloads.all));
      exit 2
  in
  let nproc = Domain.recommended_domain_count () in
  (* at most nproc domains, and at most 2, so runs on bigger hosts stay
     comparable with the sizing the workloads were chosen for *)
  let pool = Cr_par.Pool.create ~domains:(Int.min 2 nproc) () in
  let null_before = global_trace_null () in
  if traced then Prof.enable ();
  let config = { Workloads.seed; seconds; size; pool } in
  let r = Prof.span ("workload." ^ workload) (fun () -> run config) in
  let null_after = global_trace_null () in
  let e2e = r.Workloads.e2e @ [ ("peak_rss_mb", peak_rss_mb ()) ] in
  let layer, table =
    if not traced then ([], [])
    else begin
      let st = Prof.self_times () in
      ( r.Workloads.layer
        @ [ ("graphgen.s", Prof.total_prefix_s "graphgen.") ]
        @ List.map (fun (l, s) -> ("layer." ^ l ^ ".self_s", s)) st.Prof.layers
        @ [ ("layer.residual_s", st.Prof.residual); ("layer.wall_s", st.Prof.wall);
            ("layer.spans", float_of_int st.Prof.spans) ],
        st.Prof.layers @ [ ("(residual)", st.Prof.residual); ("(wall)", st.Prof.wall) ] )
    end
  in
  (match arg ~default:"" "chrome" with
  | "" -> ()
  | path -> if traced then Prof.write_chrome path);
  let null_ok = null_before && null_after in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v && v > 0.0) e2e in
  let correct = r.Workloads.failed = 0 && null_ok && finite in
  (* human-readable summary first; the JSON line comes last *)
  Printf.printf "workload %s  seed %d  seconds %g  trace %b\n" workload seed seconds traced;
  List.iter (fun (k, v) -> Printf.printf "  %-12s %d\n" k v) r.Workloads.info;
  List.iter (fun (k, v) -> Printf.printf "  %-24s %.6g\n" k v) e2e;
  List.iter (fun (k, v) -> Printf.printf "  layer %-14s %10.6f s\n" k v) table;
  List.iter (fun m -> Printf.printf "  FAILED: %s\n" m) r.Workloads.notes;
  let provenance =
    [ ("nproc", string_of_int nproc);
      ("pool_domains", string_of_int (Cr_par.Pool.domains pool));
      ("ocaml", json_str Sys.ocaml_version);
      ("rev", json_str (arg ~default:"unknown" "rev"));
      ("clock", json_str Prof.clock_source);
      ("alloc_counter", json_str "Gc.quick_stat (includes joined worker domains)");
      ("global_trace_null", string_of_bool null_ok);
      ("workload_seed", string_of_int seed) ]
    @ List.map (fun (k, v) -> (k, string_of_int v)) r.Workloads.info
  in
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int r.Workloads.attempted);
         ("failed", string_of_int r.Workloads.failed);
         ("e2e", json_obj (List.map (fun (k, v) -> (k, json_num v)) e2e));
         ("layer", json_obj (List.map (fun (k, v) -> (k, json_num v)) layer));
         ("provenance", json_obj provenance);
         ("notes", "[" ^ String.concat ", " (List.map json_str r.Workloads.notes) ^ "]") ])
