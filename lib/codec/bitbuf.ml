type writer = {
  mutable buf : Bytes.t;
  mutable bit_len : int;
}

let writer () = { buf = Bytes.make 16 '\000'; bit_len = 0 }

let ensure w bits =
  let needed = (w.bit_len + bits + 7) / 8 in
  if needed > Bytes.length w.buf then begin
    let next = Bytes.make (max needed (2 * Bytes.length w.buf)) '\000' in
    Bytes.blit w.buf 0 next 0 (Bytes.length w.buf);
    w.buf <- next
  end

(* Bits past [bit_len] are always zero, so a push ORs each chunk into
   its byte: up to 8 bits per step, the top of [value] first. *)
let push w ~bits value =
  if bits < 0 || bits > 62 then invalid_arg "Bitbuf.push: bits out of range";
  if value < 0 || (bits < 62 && value lsr bits <> 0) then
    invalid_arg "Bitbuf.push: value does not fit";
  ensure w bits;
  let buf = w.buf in
  let pos = ref w.bit_len and left = ref bits in
  while !left > 0 do
    let byte = !pos lsr 3 in
    let room = 8 - (!pos land 7) in
    let take = if !left < room then !left else room in
    left := !left - take;
    let chunk = (value lsr !left) land ((1 lsl take) - 1) in
    let old = Char.code (Bytes.get buf byte) in
    Bytes.set buf byte (Char.chr (old lor (chunk lsl (room - take))));
    pos := !pos + take
  done;
  w.bit_len <- !pos

let length_bits w = w.bit_len

let contents w = Bytes.sub w.buf 0 ((w.bit_len + 7) / 8)

type reader = {
  data : Bytes.t;
  mutable pos : int;
}

let reader data = { data; pos = 0 }

(* Reads up to 8 bits per step, like [push]. A read that runs past the
   end stops at the end of the buffer, as a bit-at-a-time read would. *)
let pull r ~bits =
  if bits < 0 || bits > 62 then invalid_arg "Bitbuf.pull: bits out of range";
  let data = r.data in
  let end_bits = 8 * Bytes.length data in
  if r.pos + bits > end_bits then begin
    r.pos <- end_bits;
    invalid_arg "Bitbuf.pull: past end of buffer"
  end;
  let value = ref 0 and pos = ref r.pos and left = ref bits in
  while !left > 0 do
    let room = 8 - (!pos land 7) in
    let take = if !left < room then !left else room in
    let b = Char.code (Bytes.get data (!pos lsr 3)) in
    value :=
      (!value lsl take) lor ((b lsr (room - take)) land ((1 lsl take) - 1));
    pos := !pos + take;
    left := !left - take
  done;
  r.pos <- !pos;
  !value

let bits_read r = r.pos
