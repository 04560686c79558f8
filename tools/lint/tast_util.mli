(** Shared helpers over the typed AST (Typedtree): path flattening,
    attribute access, pattern variable collection, and the small type
    predicates the typed rules share. Everything here is structural — no
    Env lookups, so unmarshalled .cmt trees are safe to traverse. *)

val path_parts : Path.t -> string list
(** Flattened dotted path; [Papply] yields [[]] (never a value path). *)

val parts_string : string list -> string

val stamp : Ident.t -> string
(** A stable per-binding key ("name/stamp"); injective over one
    compilation, unlike [Ident.name] under shadowing. *)

val ends_with : suffix:string list -> string list -> bool
(** [ends_with ~suffix parts]: [suffix] must be non-empty. *)

val attr_name : Parsetree.attribute -> string
val find_attr : string -> Parsetree.attributes -> Parsetree.attribute option
val has_attr : string -> Parsetree.attributes -> bool

val attr_string_payload : Parsetree.attribute -> string option
(** The single-string payload of [[@attr "reason"]], if that is the
    attribute's exact shape. *)

val strip_constraint : Typedtree.module_expr -> Typedtree.module_expr_desc
(** The module expression under any [: S] constraints. *)

val pattern_idents : 'k Typedtree.general_pattern -> Ident.t list
(** Every ident bound by the pattern ([Tpat_var] and [Tpat_alias]). *)

val iter_exprs_in :
  Typedtree.expression -> (Typedtree.expression -> unit) -> unit
(** Call [f] on the expression and every sub-expression, top-down. *)

val exists_expr :
  (Typedtree.expression -> bool) -> Typedtree.expression -> bool

val callee_parts : Typedtree.expression -> string list
(** Path parts when the expression is a bare [Texp_ident], else [[]]. *)

val is_float_type : Types.type_expr -> bool
val is_arrow_type : Types.type_expr -> bool

val iter_constrs :
  Types.type_expr -> (Path.t -> Types.type_expr list -> unit) -> unit
(** Structural walk calling [f] on every [Tconstr] with its path and
    arguments; abbreviations are left unexpanded (no Env). *)
