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
   selected ones. *)
let test_ring_tables_roundtrip () =
  let m = holey () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let n = Metric.n m in
  let level_count = Hierarchy.top_level h + 1 in
  List.iter
    (fun (mname, mode) ->
      let rings = Rings.build nt ~epsilon:0.5 ~mode in
      for u = 0 to n - 1 do
        let levels = Cr_serve.Tables.ring_levels rings u in
        let data = Table_codec.encode_rings ~n ~level_count levels in
        let decoded = Table_codec.decode_rings ~n ~level_count data in
        check_bool
          (Printf.sprintf "%s node %d rings roundtrip" mname u)
          true (decoded = levels);
        (* the exact-size predictor matches the writer *)
        check_bool
          (Printf.sprintf "%s node %d size within a byte of prediction" mname
             u)
          true
          (abs
             ((8 * Bytes.length data)
             - Table_codec.rings_bits ~n ~level_count levels)
          < 8)
      done)
    [ ("all-levels", Rings.All_levels); ("selected", Rings.Selected) ]

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
    let levels = Cr_serve.Tables.ring_levels rings u in
    let encoded = Table_codec.rings_bits ~n ~level_count levels in
    let charged = Rings.table_bits rings u in
    let prefixes = 16 * (1 + List.length levels) in
    check_bool
      (Printf.sprintf "node %d: encoded %d ~ charged %d + prefixes" u encoded
         charged)
      true
      (encoded <= charged + prefixes)
  done

(* Roundtrips on *random* tables: the codec must invert on any table whose
   fields fit the declared bit widths, not just tables a scheme actually
   builds, and the bit predictor must match the writer exactly. *)

let ring_tables_gen =
  QCheck2.Gen.(
    let* n = int_range 4 128 in
    let* level_count = int_range 1 12 in
    let entry =
      let* member = int_range 0 (n - 1) in
      let* a = int_range 0 (n - 1) in
      let* b = int_range 0 (n - 1) in
      let* next_hop = int_range 0 (n - 1) in
      return
        { Table_codec.member;
          range_lo = min a b;
          range_hi = max a b;
          next_hop }
    in
    let level =
      let* lvl = int_range 0 level_count in
      let* entries = list_size (int_range 0 8) entry in
      return { Table_codec.level = lvl; entries }
    in
    let* levels = list_size (int_range 0 6) level in
    return (n, level_count, levels))

let prop_rings_roundtrip_random =
  qcheck_case ~count:200 "codec: random ring tables roundtrip"
    ring_tables_gen (fun (n, level_count, levels) ->
      let data = Table_codec.encode_rings ~n ~level_count levels in
      Table_codec.decode_rings ~n ~level_count data = levels)

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
    prop_interval_roundtrip_random;
    Alcotest.test_case "interval tables roundtrip" `Quick
      test_interval_tables_roundtrip ]
