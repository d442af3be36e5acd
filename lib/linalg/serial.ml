let add_u8 b v =
  if v < 0 || v > 0xff then invalid_arg "Serial.add_u8: byte out of range";
  Buffer.add_char b (Char.unsafe_chr v)

let add_u32 b v =
  if v < 0 || v > 0xFFFF_FFFF then
    invalid_arg "Serial.add_u32: value out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let add_u64 b v =
  if v < 0 then invalid_arg "Serial.add_u64: negative value";
  Buffer.add_int64_le b (Int64.of_int v)

let add_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

type reader = { src : string; mutable pos : int }

exception Short of int

let reader ?(pos = 0) src =
  if pos < 0 || pos > String.length src then
    invalid_arg "Serial.reader: position out of range";
  { src; pos }

let remaining r = String.length r.src - r.pos

let need r n = if remaining r < n then raise (Short r.pos)

let take_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  v

let take_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xFFFF_FFFF in
  r.pos <- r.pos + 4;
  v

let take_u64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Short r.pos);
  r.pos <- r.pos + 8;
  Int64.to_int v

let take_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let take_f64s r n =
  if n < 0 then invalid_arg "Serial.take_f64s: negative count";
  need r (8 * n);
  Array.init n (fun _ -> take_f64 r)

let max_dim = 1 lsl 20

let take_bytes r len =
  if len < 0 then invalid_arg "Serial.take_bytes: negative length";
  need r len;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let expect r magic =
  let len = String.length magic in
  if remaining r < len then false
  else
    let ok = String.sub r.src r.pos len = magic in
    r.pos <- r.pos + len;
    ok
