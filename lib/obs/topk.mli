(** Space-Saving heavy-hitter sketch over integer keys, the one {!Live}
    keeps per window and per run.

    At most [capacity] keys are tracked. Each reported entry carries its
    estimated count and an error bound with the classic guarantee
    [count - err <= true_count <= count], where [err <= total / capacity]
    for [total] the weight absorbed; any key whose true count exceeds
    [total / capacity] is tracked. Eviction and ordering tie-breaks are
    deterministic (smallest count, then smallest key), so the sketch is a
    pure function of the input stream, and byte-identity across pool
    sizes comes from recording in pair order. *)

type t

type entry = {
  key : int;
  count : int;  (** estimated occurrences; never an underestimate *)
  err : int;  (** max overestimate: [count - err <= true <= count] *)
}

(** Raises [Invalid_argument] on non-positive capacity. *)
val create : capacity:int -> t

(** [add t ?weight key] absorbs [weight] (default 1, must be positive)
    occurrences of [key]. *)
val add : ?weight:int -> t -> int -> unit

(** [top t ~k] is the [k] heaviest tracked entries: count descending,
    then err ascending, then key ascending. *)
val top : t -> k:int -> entry list
