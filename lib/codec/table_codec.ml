module Bits = Cr_metric.Bits

type ring_entry = {
  member : int;
  range_lo : int;
  range_hi : int;
  next_hop : int;
}

type ring_level = {
  level : int;
  entries : ring_entry list;
}

exception Malformed_rings of { bit : int; fault : string }

let () =
  Printexc.register_printer (function
    | Malformed_rings { bit; fault } ->
      Some (Printf.sprintf "Table_codec.Malformed_rings: bit %d: %s" bit fault)
    | _ -> None)

let malformed bit fmt =
  Printf.ksprintf (fun fault -> raise (Malformed_rings { bit; fault })) fmt

let count_bits = 16
let count_limit = 1 lsl count_bits

let rings_bits_of_counts ~n ~level_count ~levels ~entries =
  count_bits
  + (levels * (Bits.ceil_log2 (level_count + 1) + count_bits))
  + (4 * Bits.id_bits n * entries)

let encode_rings ~n ~level_count levels =
  let id = Bits.id_bits n in
  let lvl = Bits.ceil_log2 (level_count + 1) in
  let w = Bitbuf.writer () in
  let count_levels = List.length levels in
  if count_levels >= count_limit then
    malformed 0 "%d levels; a 16-bit count holds at most %d" count_levels
      (count_limit - 1);
  Bitbuf.push w ~bits:count_bits count_levels;
  List.iter
    (fun { level; entries } ->
      Bitbuf.push w ~bits:lvl level;
      let count = List.length entries in
      if count >= count_limit then
        malformed (Bitbuf.length_bits w)
          "level %d has %d entries; a 16-bit count holds at most %d" level
          count (count_limit - 1);
      Bitbuf.push w ~bits:count_bits count;
      List.iter
        (fun e ->
          Bitbuf.push w ~bits:id e.member;
          Bitbuf.push w ~bits:id e.range_lo;
          Bitbuf.push w ~bits:id e.range_hi;
          Bitbuf.push w ~bits:id e.next_hop)
        entries)
    levels;
  Bitbuf.contents w

(* Two ranges of one level must not share a label: [by_lo] pairs each
   entry with its bit offset, by increasing range start, and an overlap
   is charged to the later of the two in the stream. *)
let rec check_disjoint level = function
  | (at, p) :: ((at', e) :: _ as rest) ->
    if p.range_hi >= e.range_lo then
      malformed (Int.max at at') "ranges %d..%d and %d..%d overlap at level %d"
        p.range_lo p.range_hi e.range_lo e.range_hi level;
    check_disjoint level rest
  | _ -> ()

let decode_rings ~n ~level_count data =
  let id = Bits.id_bits n in
  let lvl = Bits.ceil_log2 (level_count + 1) in
  let total = 8 * Bytes.length data in
  let r = Bitbuf.reader data in
  let pull what bits =
    let at = Bitbuf.bits_read r in
    if at + bits > total then malformed at "truncated in the %s" what;
    Bitbuf.pull r ~bits
  in
  let node what =
    let at = Bitbuf.bits_read r in
    let v = pull what id in
    if v >= n then malformed at "%s %d is not below n = %d" what v n;
    v
  in
  let rec entries k acc =
    if k = 0 then List.rev acc
    else
      let at = Bitbuf.bits_read r in
      let member = node "member" in
      let range_lo = node "range start" in
      let range_hi = node "range end" in
      if range_lo > range_hi then
        malformed (at + id) "range %d..%d is empty" range_lo range_hi;
      let next_hop = node "next hop" in
      entries (k - 1) ((at, { member; range_lo; range_hi; next_hop }) :: acc)
  in
  let rec levels k prev acc =
    if k = 0 then List.rev acc
    else
      let at = Bitbuf.bits_read r in
      let level = pull "level index" lvl in
      if level >= level_count then
        malformed at "level %d is not below the level count %d" level
          level_count;
      if level <= prev then malformed at "level %d follows level %d" level prev;
      let placed = entries (pull "entry count" count_bits) [] in
      check_disjoint level
        (List.sort (fun (_, a) (_, b) -> Int.compare a.range_lo b.range_lo)
           placed);
      levels (k - 1) level ({ level; entries = List.map snd placed } :: acc)
  in
  let decoded = levels (pull "level count" count_bits) (-1) [] in
  let at = Bitbuf.bits_read r in
  if total - at >= 8 then
    malformed (((at + 7) / 8) * 8) "%d bytes follow the table"
      ((total - at) / 8);
  if at < total && Bitbuf.pull r ~bits:(total - at) <> 0 then
    malformed at "nonzero padding";
  decoded
