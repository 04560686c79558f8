(** wire-exhaustive: every constructor of a message type driving
    [Network.actions] must be priced by an explicit branch of a measurer
    (a function over that type summing [Wire]'s field widths) — no
    missing constructors, no catch-alls, and a [Wire.tag] when the type
    has more than one constructor. See the implementation header for the
    full design. *)

val rule : Typed_rule.t
