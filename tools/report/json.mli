(** A minimal JSON reader for the BENCH_*.json report files.

    Covers exactly the JSON the report encoder produces (objects, arrays,
    strings, finite numbers, booleans, null) — object member order is
    preserved so diffs iterate fields in file order. Non-finite floats
    arrive as the encoder's quoted tokens (["NaN"] etc.) and stay
    strings; the exact-equality diff semantics are unaffected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] parses one JSON value ([Error msg] carries an offset). *)
val parse : string -> (t, string) result

(** [parse_file path] reads and parses [path]. A file that cannot be
    opened or read is an [Error] naming [path], like a parse error. *)
val parse_file : string -> (t, string) result

(** [member k j] is field [k] of object [j], if present. *)
val member : string -> t -> t option

(** [render j] is a compact rendering (diff messages, not round-trips). *)
val render : t -> string

(** Structural equality; [Num] compares by float equality. *)
val equal : t -> t -> bool
