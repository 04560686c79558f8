(** Discovery and loading of the typed trees the second lint tier runs
    on: walks the [.<lib>.objs/byte] and [.<exe>.eobjs/byte] directories
    under the given workspace-relative paths for implementation [.cmt]s
    and interface [.cmti]s whose source file still exists. *)

type unit_info = {
  modname : string;  (** mangled unit name, e.g. "Cr_serve__Engine" *)
  source : string;  (** workspace-relative, e.g. "lib/serve/engine.ml" *)
  structure : Typedtree.structure;
}

type intf_info = {
  i_modname : string;
  i_source : string;  (** workspace-relative, e.g. "lib/serve/engine.mli" *)
  signature : Typedtree.signature;
}

val load : root:string -> string list -> unit_info list
(** [load ~root paths] is every loadable implementation unit under the
    given directories, sorted by [source] (deterministic). Wrapper
    modules without on-disk sources are dropped. *)

val load_split :
  root:string ->
  string list ->
  extra:string list ->
  unit_info list * unit_info list
(** [load_split ~root paths ~extra] is [load ~root paths] paired with the
    units under [extra] that it does not hold; each tree is read once. *)

val load_interfaces : root:string -> string list -> intf_info list
(** [load_interfaces ~root paths] is every interface ([.cmti]) under the
    given directories whose [.mli] exists, sorted by [i_source]. *)
