(* Tests for bit buffers and routing-table wire formats. *)

open Helpers
module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Bitbuf = Cr_codec.Bitbuf
module Table_codec = Cr_codec.Table_codec
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Rings = Cr_core.Rings
module Interval_routing = Cr_tree.Interval_routing
module Tree = Cr_tree.Tree

let test_bitbuf_roundtrip () =
  let w = Bitbuf.writer () in
  let values = [ (1, 1); (7, 3); (0, 5); (1023, 10); (42, 7); (1, 62) ] in
  List.iter (fun (v, bits) -> Bitbuf.push w ~bits v) values;
  check_int "length" (1 + 3 + 5 + 10 + 7 + 62) (Bitbuf.length_bits w);
  let r = Bitbuf.reader (Bitbuf.contents w) in
  List.iter
    (fun (v, bits) -> check_int "value" v (Bitbuf.pull r ~bits))
    values;
  check_int "read position" (Bitbuf.length_bits w) (Bitbuf.bits_read r)

let test_bitbuf_rejects () =
  let w = Bitbuf.writer () in
  Alcotest.check_raises "value too large"
    (Invalid_argument "Bitbuf.push: value does not fit") (fun () ->
      Bitbuf.push w ~bits:3 8);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitbuf.push: value does not fit") (fun () ->
      Bitbuf.push w ~bits:3 (-1));
  let r = Bitbuf.reader (Bytes.create 1) in
  ignore (Bitbuf.pull r ~bits:8);
  Alcotest.check_raises "past end"
    (Invalid_argument "Bitbuf.pull: past end of buffer") (fun () ->
      ignore (Bitbuf.pull r ~bits:1))

let prop_bitbuf_random =
  qcheck_case ~count:100 "bitbuf: random sequences roundtrip"
    QCheck2.Gen.(
      list_size (int_range 1 50)
        (let* bits = int_range 1 30 in
         let* v = int_range 0 ((1 lsl bits) - 1) in
         return (v, bits)))
    (fun values ->
      let w = Bitbuf.writer () in
      List.iter (fun (v, bits) -> Bitbuf.push w ~bits v) values;
      let r = Bitbuf.reader (Bitbuf.contents w) in
      List.for_all (fun (v, bits) -> Bitbuf.pull r ~bits = v) values)

(* The stream layout written out one bit at a time: stream bit [k] is bit
   [7 - k mod 8] of byte [k / 8], each value most significant bit first.
   Bitbuf moves up to a byte per step; these are what it must equal. *)
let ref_push buf len ~bits value =
  for k = bits - 1 downto 0 do
    if (value lsr k) land 1 = 1 then begin
      let byte = !len / 8 in
      Bytes.set buf byte
        (Char.chr (Char.code (Bytes.get buf byte) lor (0x80 lsr (!len mod 8))))
    end;
    incr len
  done

let ref_pull data pos ~bits =
  let value = ref 0 in
  for _ = 1 to bits do
    let byte = !pos / 8 in
    if byte >= Bytes.length data then
      invalid_arg "Bitbuf.pull: past end of buffer";
    value :=
      (!value lsl 1) lor ((Char.code (Bytes.get data byte) lsr (7 - (!pos mod 8))) land 1);
    incr pos
  done;
  !value

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* A width in 0..62 with a value at either end of its range or anywhere
   in it (62 random bits masked to the width). *)
let width_value_gen =
  QCheck2.Gen.(
    let* bits = int_range 0 62 in
    let top = if bits = 62 then max_int else (1 lsl bits) - 1 in
    let* hi = int_bound ((1 lsl 31) - 1) and* lo = int_bound ((1 lsl 31) - 1) in
    let* value = oneofl [ 0; top; ((hi lsl 31) lor lo) land top ] in
    return (bits, value))

let prop_bitbuf_matches_reference =
  qcheck_case ~count:300 "bitbuf: push and pull = bit-at-a-time reference"
    QCheck2.Gen.(
      let* pushes = list_size (int_range 0 24) width_value_gen in
      let* extra = int_range 0 62 in
      let* bad_bits = oneofl [ -1; 63; 64; min_int ] in
      let* bad_value = oneofl [ `Negative; `Too_wide ] in
      return (pushes, extra, bad_bits, bad_value))
    (fun (pushes, extra, bad_bits, bad_value) ->
      let w = Bitbuf.writer () in
      let total = List.fold_left (fun a (b, _) -> a + b) 0 pushes in
      let expect = Bytes.make ((total + 7) / 8) '\000' and len = ref 0 in
      List.iter
        (fun (bits, v) ->
          Bitbuf.push w ~bits v;
          ref_push expect len ~bits v)
        pushes;
      let data = Bitbuf.contents w in
      let same_stream = Bytes.equal data expect && Bitbuf.length_bits w = !len in
      (* pull the same widths back, then [extra] more bits, which runs
         past the end unless the padding covers them *)
      let r = Bitbuf.reader data and pos = ref 0 in
      let same_pulls =
        List.for_all
          (fun (bits, v) ->
            Bitbuf.pull r ~bits = v
            && ref_pull data pos ~bits = v
            && Bitbuf.bits_read r = !pos)
          pushes
      in
      let same_tail =
        outcome (fun () -> Bitbuf.pull r ~bits:extra)
        = outcome (fun () -> ref_pull data pos ~bits:extra)
        && Bitbuf.bits_read r = !pos
      in
      (* rejections: the same messages, and a rejected push writes nothing *)
      let too_wide =
        if bad_value = `Negative then (7, -1)
        else
          let bits = (total mod 62) in
          (bits, 1 lsl bits)
      in
      let rejected =
        outcome (fun () -> Bitbuf.push w ~bits:bad_bits 0)
        = Error "Bitbuf.push: bits out of range"
        && outcome (fun () -> Bitbuf.push w ~bits:(fst too_wide) (snd too_wide))
           = Error "Bitbuf.push: value does not fit"
        && outcome (fun () -> Bitbuf.pull (Bitbuf.reader data) ~bits:bad_bits)
           = Error "Bitbuf.pull: bits out of range"
        && Bytes.equal (Bitbuf.contents w) expect
      in
      same_stream && same_pulls && same_tail && rejected)

(* The layout itself, not just a round trip: push and pull could change
   it together and every round-trip test would still pass. *)
let test_bitbuf_golden_bytes () =
  let w = Bitbuf.writer () in
  List.iter
    (fun (bits, v) -> Bitbuf.push w ~bits v)
    [ (3, 0b101); (1, 1); (0, 0); (12, 0xABC); (7, 0x2A);
      (62, 0x2AAAAAAAAAAAAAAB); (5, 31); (9, 0x101); (1, 0) ];
  check_int "bits" 100 (Bitbuf.length_bits w);
  let hex =
    String.concat ""
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (Bytes.to_seq (Bitbuf.contents w))))
  in
  Alcotest.(check string) "bytes" "babc55555555555555555fe020" hex

(* A node's real ring table, pushed through the codec: both ring modes,
   the Lemma 3.1 scheme's every level and the Theorem 1.2 scheme's
   selected ones, on the holey grid and geo-48. The store's per-node wire
   size is the writer's exact length. *)
let test_ring_tables_roundtrip () =
  List.iter
    (fun m ->
      let h = Hierarchy.build m in
      let nt = Netting_tree.build h in
      let n = Metric.n m in
      let level_count = Hierarchy.top_level h + 1 in
      List.iter
        (fun (mname, mode) ->
          let rings = Rings.build nt ~epsilon:0.5 ~mode in
          for u = 0 to n - 1 do
            let levels = Rings.levels_of rings u in
            let data = Table_codec.encode_rings ~n ~level_count levels in
            let decoded = Table_codec.decode_rings ~n ~level_count data in
            check_bool
              (Printf.sprintf "%s node %d rings roundtrip" mname u)
              true (decoded = levels);
            check_int
              (Printf.sprintf "%s node %d: wire bits" mname u)
              (Table_codec.rings_bits ~n ~level_count levels)
              (Rings.wire_bits rings u);
            check_int
              (Printf.sprintf "%s node %d: bytes" mname u)
              ((Rings.wire_bits rings u + 7) / 8)
              (Bytes.length data)
          done)
        [ ("all-levels", Rings.All_levels); ("selected", Rings.Selected) ])
    [ holey (); geo48 () ]

let test_ring_encoding_matches_accounting () =
  (* the harness charges 4 id-sized fields per entry (range + hop + id);
     the wire format adds only level indices and count prefixes *)
  let m = grid6 () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let rings = Rings.build nt ~epsilon:0.5 ~mode:Rings.Selected in
  let n = Metric.n m in
  let level_count = Hierarchy.top_level h + 1 in
  for u = 0 to n - 1 do
    let levels = Rings.levels_of rings u in
    let encoded = Table_codec.rings_bits ~n ~level_count levels in
    let charged = Rings.table_bits rings u in
    let prefixes = 16 * (1 + List.length levels) in
    check_bool
      (Printf.sprintf "node %d: encoded %d ~ charged %d + prefixes" u encoded
         charged)
      true
      (encoded <= charged + prefixes)
  done

(* The decoder's contract, checked independently of it: ids and hops
   below n, lo <= hi < n, strictly increasing levels below the level
   count, and disjoint ranges within each level. *)
let valid_rings ~n ~level_count levels =
  let node v = v >= 0 && v < n in
  let rec disjoint = function
    | (a : Table_codec.ring_entry) :: (b :: _ as rest) ->
      a.range_hi < b.range_lo && disjoint rest
    | _ -> true
  in
  snd
    (List.fold_left
       (fun (prev, ok) (l : Table_codec.ring_level) ->
         ( l.level,
           ok && l.level > prev && l.level < level_count
           && List.for_all
                (fun (e : Table_codec.ring_entry) ->
                  node e.member && node e.next_hop && node e.range_lo
                  && node e.range_hi && e.range_lo <= e.range_hi)
                l.entries
           && disjoint
                (List.sort
                   (fun (a : Table_codec.ring_entry) b ->
                     Int.compare a.range_lo b.range_lo)
                   l.entries) ))
       (-1, true) levels)

(* Roundtrips on *random* valid tables: the codec must invert on any
   valid table, not just tables a scheme actually builds, and the bit
   predictor must match the writer exactly. A level's ranges are
   consecutive pairs of its sorted cut points (a lone last cut is a
   singleton), listed in random order. *)
let ring_tables_gen =
  QCheck2.Gen.(
    let* n = int_range 4 128 in
    let* level_count = int_range 1 12 in
    let id = int_range 0 (n - 1) in
    let rec pairs = function
      | a :: b :: rest -> (a, b) :: pairs rest
      | [ a ] -> [ (a, a) ]
      | [] -> []
    in
    let level lvl =
      let* cuts = list_size (int_range 0 16) id in
      let* entries =
        flatten_l
          (List.map
             (fun (range_lo, range_hi) ->
               let* member = id in
               let* next_hop = id in
               return { Table_codec.member; range_lo; range_hi; next_hop })
             (pairs (List.sort_uniq Int.compare cuts)))
      in
      let* entries = shuffle_l entries in
      return { Table_codec.level = lvl; entries }
    in
    let* chosen = list_size (int_range 0 6) (int_range 0 (level_count - 1)) in
    let* levels =
      flatten_l (List.map level (List.sort_uniq Int.compare chosen))
    in
    return (n, level_count, levels))

let prop_rings_roundtrip_random =
  qcheck_case ~count:200 "codec: random ring tables roundtrip"
    ring_tables_gen (fun (n, level_count, levels) ->
      let data = Table_codec.encode_rings ~n ~level_count levels in
      valid_rings ~n ~level_count levels
      && Table_codec.decode_rings ~n ~level_count data = levels)

let prop_rings_bits_exact =
  qcheck_case ~count:200 "codec: rings_bits = writer length = charged bits"
    ring_tables_gen (fun (n, level_count, levels) ->
      let bits = Table_codec.rings_bits ~n ~level_count levels in
      let data = Table_codec.encode_rings ~n ~level_count levels in
      (* the writer pads to a byte boundary and not a bit more *)
      Bytes.length data = (bits + 7) / 8
      (* per entry the codec spends exactly what the harness charges per
         ring member: a range (2 ids) plus member and next-hop ids *)
      && bits
         = 16
           + List.fold_left
               (fun acc { Table_codec.entries; _ } ->
                 acc
                 + Bits.ceil_log2 (level_count + 1)
                 + 16
                 + List.length entries
                   * (Bits.range_bits n + (2 * Bits.id_bits n)))
               0 levels)

(* Each fault an unchecked decoder used to accept (n = 5, level count 3,
   3-bit ids, 2-bit level indices), and a truncation, raise the codec's
   typed error naming the fault and its bit offset. The first level's
   entries start at bit 34, 12 bits apart. *)
let test_decoder_rejects () =
  let n = 5 and level_count = 3 in
  let entry member lo hi next_hop =
    { Table_codec.member; range_lo = lo; range_hi = hi; next_hop }
  in
  let encode levels = Table_codec.encode_rings ~n ~level_count levels in
  let rejects what ~bit ~fault data =
    Alcotest.check_raises what
      (Table_codec.Malformed_rings { bit; fault })
      (fun () -> ignore (Table_codec.decode_rings ~n ~level_count data))
  in
  rejects "member and hop >= n" ~bit:34 ~fault:"member 7 is not below n = 5"
    (encode [ { level = 0; entries = [ entry 7 0 0 6 ] } ]);
  rejects "empty range" ~bit:37 ~fault:"range 4..1 is empty"
    (encode [ { level = 0; entries = [ entry 0 4 1 0 ] } ]);
  rejects "levels out of order" ~bit:34 ~fault:"level 0 follows level 2"
    (encode [ { level = 2; entries = [] }; { level = 0; entries = [] } ]);
  rejects "level past the level count" ~bit:16
    ~fault:"level 3 is not below the level count 3"
    (encode [ { level = 3; entries = [] } ]);
  rejects "overlapping ranges in a level" ~bit:46
    ~fault:"ranges 0..2 and 2..3 overlap at level 1"
    (encode [ { level = 1; entries = [ entry 0 0 2 0; entry 1 2 3 1 ] } ]);
  (* one entry: 46 bits, padded to 6 bytes *)
  let valid = encode [ { level = 0; entries = [ entry 1 1 1 1 ] } ] in
  check_int "a one-entry table is 6 bytes" 6 (Bytes.length valid);
  rejects "trailing bytes" ~bit:48 ~fault:"2 bytes follow the table"
    (Bytes.cat valid (Bytes.of_string "\xff\xff"));
  rejects "truncated" ~bit:40 ~fault:"truncated in the range end"
    (Bytes.sub valid 0 5);
  let padded = Bytes.copy valid in
  Bytes.set padded 5 (Char.chr (Char.code (Bytes.get valid 5) lor 1));
  rejects "nonzero padding" ~bit:46 ~fault:"nonzero padding" padded

(* The 16-bit entry count cannot say 2^16: the encoder names the level
   and the count's bit offset instead of wrapping. *)
let test_encoder_count_overflow () =
  let e =
    { Table_codec.member = 0; range_lo = 0; range_hi = 0; next_hop = 0 }
  in
  Alcotest.check_raises "65536 entries"
    (Table_codec.Malformed_rings
       { bit = 18;
         fault = "level 0 has 65536 entries; a 16-bit count holds at most 65535"
       })
    (fun () ->
      ignore
        (Table_codec.encode_rings ~n:5 ~level_count:3
           [ { level = 0; entries = List.init 65536 (fun _ -> e) } ]))

(* Every truncation and every single-bit flip of a real encoded table,
   of either ring mode, either raises the typed error or decodes to a
   valid table that re-encodes to exactly the input bytes. *)
let prop_decoder_fuzz =
  qcheck_case ~count:20
    "codec: truncations and bit flips of real tables are rejected or exact"
    QCheck2.Gen.(pair cover_family_gen (int_range 0 1_000))
    (fun (params, pick) ->
      let m = Metric.of_graph (cover_family_graph params) in
      let n = Metric.n m in
      let h = Hierarchy.build m in
      let nt = Netting_tree.build h in
      let level_count = Hierarchy.top_level h + 1 in
      let exact bytes =
        match Table_codec.decode_rings ~n ~level_count bytes with
        | levels ->
          valid_rings ~n ~level_count levels
          && Bytes.equal (Table_codec.encode_rings ~n ~level_count levels) bytes
        | exception Table_codec.Malformed_rings _ -> true
      in
      List.for_all
        (fun mode ->
          let rings = Rings.build nt ~epsilon:0.5 ~mode in
          let data =
            Table_codec.encode_rings ~n ~level_count
              (Rings.levels_of rings (pick mod n))
          in
          let len = Bytes.length data in
          let flip b =
            let flipped = Bytes.copy data in
            let byte = Char.code (Bytes.get data (b / 8)) in
            Bytes.set flipped (b / 8) (Char.chr (byte lxor (0x80 lsr (b mod 8))));
            flipped
          in
          List.for_all
            (fun k -> exact (Bytes.sub data 0 k))
            (List.init len Fun.id)
          && List.for_all (fun b -> exact (flip b)) (List.init (8 * len) Fun.id))
        [ Rings.All_levels; Rings.Selected ])

let interval_table_gen =
  QCheck2.Gen.(
    let* n = int_range 4 128 in
    let id = int_range 0 (n - 1) in
    let* own_lo = id in
    let* own_hi = id in
    let* parent_port = id in
    let* children =
      list_size (int_range 0 10)
        (let* lo = id in
         let* hi = id in
         let* port = id in
         return (lo, hi, port))
    in
    return (n, { Table_codec.own_lo; own_hi; parent_port; children }))

let prop_interval_roundtrip_random =
  qcheck_case ~count:200 "codec: random interval tables roundtrip"
    interval_table_gen (fun (n, table) ->
      let data = Table_codec.encode_interval ~n table in
      Table_codec.decode_interval ~n data = table
      && Bytes.length data = (Table_codec.interval_bits ~n table + 7) / 8)

let test_interval_tables_roundtrip () =
  let m = holey () in
  let n = Metric.n m in
  (* a shortest-path tree's interval routing tables *)
  let parent v =
    match Metric.shortest_path m ~src:v ~dst:0 with
    | _ :: hop :: _ -> hop
    | _ -> assert false
  in
  let tree =
    Tree.of_parents ~root:0
      ~nodes:(List.init n Fun.id)
      ~parent
      ~weight:(fun _ -> 1.0)
  in
  let ir = Interval_routing.build tree in
  List.iter
    (fun v ->
      let own = Interval_routing.label ir v in
      let table =
        { Table_codec.own_lo = own;
          own_hi = own;
          parent_port =
            (match Tree.parent tree v with Some (p, _) -> p | None -> v);
          children =
            List.map
              (fun (c, _) -> (Interval_routing.label ir c, own, c))
              (Tree.children tree v) }
      in
      let data = Table_codec.encode_interval ~n table in
      check_bool "interval roundtrip" true
        (Table_codec.decode_interval ~n data = table);
      check_bool "size prediction" true
        (abs ((8 * Bytes.length data) - Table_codec.interval_bits ~n table)
        < 8))
    (Tree.nodes tree)

let suite =
  [ Alcotest.test_case "bitbuf roundtrip" `Quick test_bitbuf_roundtrip;
    Alcotest.test_case "bitbuf rejects" `Quick test_bitbuf_rejects;
    prop_bitbuf_random;
    prop_bitbuf_matches_reference;
    Alcotest.test_case "bitbuf golden bytes" `Quick test_bitbuf_golden_bytes;
    Alcotest.test_case "ring tables roundtrip" `Quick
      test_ring_tables_roundtrip;
    Alcotest.test_case "ring encoding matches accounting" `Quick
      test_ring_encoding_matches_accounting;
    prop_rings_roundtrip_random;
    prop_rings_bits_exact;
    Alcotest.test_case "decoder rejects invalid tables" `Quick
      test_decoder_rejects;
    Alcotest.test_case "encoder rejects a 16-bit count overflow" `Quick
      test_encoder_count_overflow;
    prop_decoder_fuzz;
    prop_interval_roundtrip_random;
    Alcotest.test_case "interval tables roundtrip" `Quick
      test_interval_tables_roundtrip ]
