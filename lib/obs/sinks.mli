(** Concrete event sinks: the in-memory ring, and the JSONL encoding.

    The JSONL encoding is one JSON object per event per line with a stable
    field order and deterministic float formatting, so a trace produced
    with a {!Trace.counting_clock} is byte-reproducible. *)

(** [json_of_event ev] is the one-line JSON encoding of an event, one
    line per event in a JSONL trace. *)
val json_of_event : Trace.event -> string

(** Deterministic float rendering shared by the exporters (and by the
    bench report encoder). Non-finite values become the quoted JSON
    strings ["NaN"], ["Infinity"], ["-Infinity"] — always a valid JSON
    token, never a bare [nan]/[inf]. *)
val json_float : float -> string

(** [json_string s] is [s] as a quoted, escaped JSON string token. *)
val json_string : string -> string

(** A bounded in-memory ring buffer: cheap enough to attach to hot routes,
    keeps the most recent [capacity] events. *)
module Memory : sig
  type t

  (** [create ?capacity ()] (default capacity 65536). Raises
      [Invalid_argument] on non-positive capacity. *)
  val create : ?capacity:int -> unit -> t

  val sink : t -> Trace.sink

  (** [events t] in emission order, oldest retained event first. *)
  val events : t -> Trace.event list

  (** [dropped t] counts events evicted by the ring since creation. *)
  val dropped : t -> int

end
