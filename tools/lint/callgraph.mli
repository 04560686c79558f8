(** A whole-program view over the loaded typed trees: every function
    binding (top-level, nested-module, and local) indexed so call sites
    can be resolved across module boundaries, honouring dune's wrapped
    library mangling ([Cr_core.Rings] = [Cr_core__Rings]) and local
    [module M = ...] aliases. *)

type def = {
  d_unit : Cmt_index.unit_info;
  d_qual : string;  (** e.g. "Cr_par__Pool.parallel_init.run_chunks" *)
  d_name : string;  (** last component, for display *)
  d_id : Ident.t;
  d_attrs : Parsetree.attributes;
  d_body : Typedtree.expression;
  d_loc : Location.t;
  d_toplevel : bool;
}

type t = {
  units : Cmt_index.unit_info list;
  defs : def list;  (** deterministic: unit order, then source order *)
  by_stamp : (string * string, def) Hashtbl.t;
  by_qual : (string, def) Hashtbl.t;
  unit_names : (string, unit) Hashtbl.t;
  aliases : (string * string, string list) Hashtbl.t;
}

type callee =
  | Def of def
  | External of string list  (** fully-substituted dotted path *)
  | Local of string  (** parameter / unresolved local: a boundary *)

val build : Cmt_index.unit_info list -> t

val resolve : t -> Cmt_index.unit_info -> Path.t -> callee
(** Resolve a call-site path seen from inside [unit_info]. *)

val type_key : t -> Cmt_index.unit_info -> Path.t -> string
(** Normalize a type path to ["Unit.type"] when it names a type declared
    in a loaded unit — the key the wire-exhaustiveness rule matches
    declarations against use sites with. *)
