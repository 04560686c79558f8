(** Reading graphs from plain edge-list text.

    Format: '#'-prefixed comment lines; the first data line is the node
    count; every other data line is "u v w" (an undirected edge). This is
    the interchange format the CLI's "file:PATH" family uses, so real
    topologies can be fed to the schemes. *)

(** [of_string s] parses a graph. Raises [Invalid_argument] with a
    line-numbered message on malformed input. *)
(* cr_lint: allow dead-export -- the parser load reads files with; its errors are tested on strings *)
val of_string : string -> Graph.t

(** [load path] parses the file at [path] as {!of_string} does. Raises
    [Sys_error] when the file cannot be read. *)
val load : string -> Graph.t
