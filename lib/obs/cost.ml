(* CONGEST cost accounting (see cost.mli). Internally two hash tables —
   undirected-edge cells and phase cells — mutated in place on the hot
   path; every accessor folds and sorts (the lib/obs exemption from the
   cr_lint determinism rule), so output order is a function of contents
   only. *)

type cell = {
  mutable c_messages : int;
  mutable c_bits : int;
}

(* A phase's round histogram is [p_rounds] plus a pending run of
   [p_run_count] deliveries at round [p_run_round], so a delivery in the
   same round as the last one touches no table. Rounds need not arrive in
   order (a walker's restart at hop 0 per route): a new round flushes the
   run into the table, which holds one binding per distinct round. *)
type phase_cell = {
  p_name : string;
  p_order : int;  (* first-seen order, for stable phase listing *)
  mutable p_messages : int;
  mutable p_bits : int;
  mutable p_max_round : int;  (* -1 while the phase is empty *)
  mutable p_run_round : int;
  mutable p_run_count : int;  (* 0: no pending run *)
  p_rounds : (int, int) Hashtbl.t;  (* round -> flushed deliveries *)
}

(* Edge cells are keyed by one int, [u lsl 31 lor v] for [u < v]. *)
module Edges = Hashtbl.Make (Int)

type t = {
  on : bool;
  edges : cell Edges.t;
  by_phase : (string, phase_cell) Hashtbl.t;
  mutable last : phase_cell option;
      (* the last phase recorded, matched by physical equality of its
         name: callers pass the same string for a whole protocol run *)
  mutable next_order : int;
}

exception Node_id_too_large of int

type edge_load = {
  u : int;
  v : int;
  messages : int;
  bits : int;
}

type phase_total = {
  phase : string;
  messages : int;
  bits : int;
  rounds : int;
  round_histogram : (int * int) list;
}

type summary = {
  total_messages : int;
  total_bits : int;
  total_rounds : int;
  max_edge_messages : int;
  max_edge_bits : int;
}

let make on =
  { on; edges = Edges.create 64; by_phase = Hashtbl.create 8; last = None;
    next_order = 0 }

let null = make false
let create () = make true
let enabled t = t.on

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

let edge_key u v =
  if v > id_mask then raise (Node_id_too_large v);
  (u lsl id_bits) lor v

let phase_cell t phase =
  match t.last with
  | Some pc when pc.p_name == phase -> pc
  | _ ->
    let pc =
      match Hashtbl.find_opt t.by_phase phase with
      | Some pc -> pc
      | None ->
        let pc =
          { p_name = phase;
            p_order = t.next_order;
            p_messages = 0;
            p_bits = 0;
            p_max_round = -1;
            p_run_round = 0;
            p_run_count = 0;
            p_rounds = Hashtbl.create 16 }
        in
        t.next_order <- t.next_order + 1;
        Hashtbl.add t.by_phase phase pc;
        pc
    in
    t.last <- Some pc;
    pc

let add_rounds pc round count =
  let prev =
    match Hashtbl.find_opt pc.p_rounds round with Some n -> n | None -> 0
  in
  Hashtbl.replace pc.p_rounds round (prev + count)

let record_enabled t ~phase ~src ~dst ~round ~bits =
  begin
    (* keyed first, so a rejected id leaves the ledger untouched *)
    let key =
      if src < 0 || dst < 0 || src = dst then -1
      else if src < dst then edge_key src dst
      else edge_key dst src
    in
    let pc = phase_cell t phase in
    pc.p_messages <- pc.p_messages + 1;
    pc.p_bits <- pc.p_bits + bits;
    if round > pc.p_max_round then pc.p_max_round <- round;
    if pc.p_run_count > 0 && pc.p_run_round = round then
      pc.p_run_count <- pc.p_run_count + 1
    else begin
      if pc.p_run_count > 0 then add_rounds pc pc.p_run_round pc.p_run_count;
      pc.p_run_round <- round;
      pc.p_run_count <- 1
    end;
    if key >= 0 then begin
      let cell =
        match Edges.find t.edges key with
        | c -> c
        | exception Not_found ->
          let c = { c_messages = 0; c_bits = 0 } in
          Edges.add t.edges key c;
          c
      in
      cell.c_messages <- cell.c_messages + 1;
      cell.c_bits <- cell.c_bits + bits
    end
  end

(* The null accumulator sits on every message-delivery hot path, so the
   disabled branch must cost one load and one test — the zero-alloc
   proof pins that down; all bookkeeping lives behind the guard. *)
let[@cr.zero_alloc] record t ~phase ~src ~dst ~round ~bits =
  if t.on then
    (record_enabled t ~phase ~src ~dst ~round ~bits
    [@cr.alloc_ok "enabled-path accounting allocates ledger cells by \
                   design; the hot default is a disabled accumulator"])

let cmp_uv a b =
  match Int.compare a.u b.u with 0 -> Int.compare a.v b.v | c -> c

let load key c =
  { u = key lsr id_bits; v = key land id_mask; messages = c.c_messages;
    bits = c.c_bits }

let edge_loads t =
  Edges.fold (fun key c acc -> load key c :: acc) t.edges []
  |> List.sort cmp_uv

let top_edges t ~k =
  let by_load (a : edge_load) (b : edge_load) =
    match Int.compare b.messages a.messages with
    | 0 -> (
      match Int.compare b.bits a.bits with 0 -> cmp_uv a b | c -> c)
    | c -> c
  in
  let all =
    Edges.fold (fun key c acc -> load key c :: acc) t.edges []
    |> List.sort by_load
  in
  List.filteri (fun i _ -> i < k) all

let phases t =
  Hashtbl.fold (fun phase pc acc -> (phase, pc) :: acc) t.by_phase []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a.p_order b.p_order)
  |> List.map (fun (phase, pc) ->
         let flushed = Hashtbl.fold (fun r n acc -> (r, n) :: acc) pc.p_rounds [] in
         let round_histogram =
           (if pc.p_run_count = 0 then flushed
            else
              let run = pc.p_run_round in
              let prev = Option.value (List.assoc_opt run flushed) ~default:0 in
              (run, prev + pc.p_run_count) :: List.remove_assoc run flushed)
           |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
         in
         { phase;
           messages = pc.p_messages;
           bits = pc.p_bits;
           rounds = pc.p_max_round + 1;
           round_histogram })

let summary t =
  let total_messages, total_bits, total_rounds =
    Hashtbl.fold
      (fun _ pc (m, b, r) ->
        (m + pc.p_messages, b + pc.p_bits, r + pc.p_max_round + 1))
      t.by_phase (0, 0, 0)
  in
  let max_edge_messages, max_edge_bits =
    Edges.fold
      (fun _ c (mm, mb) -> (Int.max mm c.c_messages, Int.max mb c.c_bits))
      t.edges (0, 0)
  in
  { total_messages; total_bits; total_rounds; max_edge_messages; max_edge_bits }

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-36s %8s %12s %14s\n" "phase" "rounds" "messages" "bits");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %8d %12d %14d\n" p.phase p.rounds p.messages
           p.bits))
    (phases t);
  let s = summary t in
  Buffer.add_string buf
    (Printf.sprintf "%-36s %8d %12d %14d\n" "TOTAL" s.total_rounds
       s.total_messages s.total_bits);
  Buffer.add_string buf
    (Printf.sprintf "max edge load: %d messages, %d bits over %d edges\n"
       s.max_edge_messages s.max_edge_bits (Edges.length t.edges));
  Buffer.contents buf
