(* A self-contained mini protocol for the wire-exhaustive rule: a local
   Wire/Network pair (the rule scopes structurally, not by module path),
   a three-constructor message type, and measure coverage that misses
   one constructor behind a catch-all (see test_lint.ml). *)

module Wire = struct
  let tag ~cases v =
    ignore v;
    if cases <= 2 then 1 else 2

  let node v = if v < 0 then 1 else 16
end

module Network = struct
  type 'msg actions = { send : int -> 'msg -> unit }
end

type msg =
  | Ping of int
  | Pong of int
  | Gone

(* [msg] drives Network.actions, so it is a message type *)
let handler (a : msg Network.actions) v = a.Network.send v (Ping v)

(* Gone is missing and hidden behind a catch-all: two findings *)
let measure = function
  | Ping v -> Wire.tag ~cases:3 0 + Wire.node v
  | Pong v -> Wire.tag ~cases:3 1 + Wire.node v
  | _ -> 0

let examples = [ Ping 1; Pong 2; Gone ]
let total = List.fold_left (fun acc m -> acc + measure m) 0 examples
