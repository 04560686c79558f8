(* Discovery and loading of the typed trees the second lint tier runs on.

   Dune emits a .cmt (and, for a module with an .mli, a .cmti) per
   compiled module under [<dir>/.<lib>.objs/byte/<mangled>.cmt] for a
   library and under [<dir>/.<exe>.eobjs/byte/] for executables; this
   module walks the build tree under the given workspace-relative paths
   (inside _build when cr_lint runs from a dune action, which is why the
   @lint alias depends on @check — the trees are never stale),
   unmarshals each tree, and pairs it with its workspace-relative source
   path so diagnostics and suppressions attach to real files. *)

type unit_info = {
  modname : string;  (* mangled unit name, e.g. "Cr_serve__Engine" *)
  source : string;  (* workspace-relative, e.g. "lib/serve/engine.ml" *)
  structure : Typedtree.structure;
}

type intf_info = {
  i_modname : string;
  i_source : string;  (* workspace-relative, e.g. "lib/serve/engine.mli" *)
  signature : Typedtree.signature;
}

let is_objs_dir name =
  String.length name > 0
  && name.[0] = '.'
  && (Filename.check_suffix name ".objs" || Filename.check_suffix name ".eobjs")

(* Collect the files with extension [ext]: ordinary directory recursion,
   plus a descent into .<lib>.objs/byte and .<exe>.eobjs/byte (hidden
   directories are otherwise skipped, matching the source scanner in
   Engine). *)
let rec collect ext root rel acc =
  let abs = Filename.concat root rel in
  if (not (Sys.file_exists abs)) || not (Sys.is_directory abs) then acc
  else
    Sys.readdir abs |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           let sub = rel ^ "/" ^ name in
           if is_objs_dir name then
             let byte = sub ^ "/byte" in
             let byte_abs = Filename.concat root byte in
             if Sys.file_exists byte_abs && Sys.is_directory byte_abs then
               Sys.readdir byte_abs |> Array.to_list
               |> List.sort String.compare
               |> List.fold_left
                    (fun acc f ->
                      if Filename.check_suffix f ext then
                        (byte ^ "/" ^ f) :: acc
                      else acc)
                    acc
             else acc
           else if String.length name > 0 && (name.[0] = '.' || name.[0] = '_')
           then acc
           else collect ext root sub acc)
         acc

(* The generated library wrapper ("cr_serve.ml-gen") has no on-disk
   source; it carries only module aliases, so it is dropped. *)
let load_one root rel_cmt =
  match Cmt_format.read_cmt (Filename.concat root rel_cmt) with
  | exception _ -> None
  | infos -> (
    match infos.Cmt_format.cmt_annots with
    | Cmt_format.Implementation structure -> (
      match infos.Cmt_format.cmt_sourcefile with
      | Some src
        when Filename.check_suffix src ".ml"
             && Sys.file_exists (Filename.concat root src) ->
        Some
          { modname = infos.Cmt_format.cmt_modname; source = src; structure }
      | _ -> None)
    | _ -> None)

let collect_all ext root paths =
  List.concat_map (fun p -> List.rev (collect ext root p [])) paths
  |> List.sort_uniq String.compare

let load_files root files =
  List.filter_map (load_one root) files
  |> List.sort (fun a b -> String.compare a.source b.source)

let load ~root paths = load_files root (collect_all ".cmt" root paths)

let load_split ~root paths ~extra =
  let own = collect_all ".cmt" root paths in
  let more =
    List.filter (fun f -> not (List.mem f own)) (collect_all ".cmt" root extra)
  in
  (load_files root own, load_files root more)

let load_interface root rel_cmti =
  match Cmt_format.read_cmt (Filename.concat root rel_cmti) with
  | exception _ -> None
  | infos -> (
    match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Interface signature, Some src
      when Filename.check_suffix src ".mli"
           && Sys.file_exists (Filename.concat root src) ->
      Some { i_modname = infos.Cmt_format.cmt_modname; i_source = src; signature }
    | _ -> None)

let load_interfaces ~root paths =
  List.filter_map (load_interface root) (collect_all ".cmti" root paths)
  |> List.sort (fun a b -> String.compare a.i_source b.i_source)
