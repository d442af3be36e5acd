module Serial = Dm_linalg.Serial
module Vec = Dm_linalg.Vec
module Broker = Dm_market.Broker

let magic = "dm-jrn1\n"

let segment_name start = Printf.sprintf "seg-%012d.dmj" start

(* Accepts any digit run, not just the %012d-padded width: a start
   offset at or above 10^12 widens the printed name to 13+ digits and
   a fixed-width parse would silently skip the segment —
   [int_of_string_opt] also rejects runs past [max_int]. *)
let segment_start name =
  let n = String.length name in
  if
    n > 8
    && String.starts_with ~prefix:"seg-" name
    && String.ends_with ~suffix:".dmj" name
  then
    let digits = String.sub name 4 (n - 8) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

(* Event payload layout (all little-endian, version byte first):
   kind and acceptance as bytes, the float fields as raw IEEE-754 bit
   patterns, then the feature vector either dense (every coordinate)
   or as its sparse view (index/value pairs) when the density passes
   the [Vec.Sparse.of_dense] threshold — the same rule the cut
   kernels use, so long sparse-workload journals pay O(nnz) per
   round, not O(n).

   Version 2 is the multi-tenant tagging of the same layout: a 4-byte
   little-endian tenant id sits between the version byte and the round
   field, and everything after it is byte-for-byte the version-1 body.
   Solo journals keep writing version 1, so old logs and old readers
   are unaffected; the shared {!Fleet} journal writes version 2. *)
let version = 1

let tagged_version = 2

let kind_code = function
  | Broker.Skipped -> 0
  | Broker.Exploratory -> 1
  | Broker.Conservative -> 2
  | Broker.Baseline -> 3

let kind_of_code = function
  | 0 -> Some Broker.Skipped
  | 1 -> Some Broker.Exploratory
  | 2 -> Some Broker.Conservative
  | 3 -> Some Broker.Baseline
  | _ -> None

(* Upper bound on the framed size of an event: the 8-byte frame
   header, ~75 bytes of fixed fields (including the optional 4-byte
   tenant tag), and at worst 12 bytes per feature coordinate (sparse
   index + value). *)
let frame_bound (e : Broker.event) = 100 + (12 * Vec.dim e.Broker.x)

(* Encode one framed record ([length | crc | payload]) into [scratch]
   at offset [at] and return the frame size.  This is the journal hot
   path — one pass over a preallocated buffer, checksummed in place
   via {!Frame.crc32_bytes}, no intermediate copies.  The caller
   guarantees [Bytes.length scratch - at >= frame_bound e];
   [encode_event] extracts the payload from the same encoder, so the
   record layout exists exactly once.  [?tenant] switches the header
   to the tagged version-2 form. *)
let encode_frame ?tenant scratch ~at (e : Broker.event) =
  if e.Broker.t < 0 then invalid_arg "Journal.encode_event: negative round";
  let b = scratch in
  (* Fixed-offset straight-line stores for the constant-layout prefix
     — closure-free, so the hot path is just the primitive writes.
     [o] is the offset of the round field; only the header before it
     depends on the version. *)
  let o =
    match tenant with
    | None ->
        Bytes.unsafe_set b (at + 8) (Char.unsafe_chr version);
        at + 9
    | Some id ->
        if id < 0 || id > 0xFFFF_FFFF then
          invalid_arg "Journal.encode_event: tenant id outside [0, 2^32)";
        Bytes.unsafe_set b (at + 8) (Char.unsafe_chr tagged_version);
        Bytes.set_int32_le b (at + 9) (Int32.of_int id);
        at + 13
  in
  Bytes.set_int64_le b o (Int64.of_int e.Broker.t);
  Bytes.unsafe_set b (o + 8) (Char.unsafe_chr (kind_code e.Broker.kind));
  Bytes.unsafe_set b (o + 9) (Char.unsafe_chr (Bool.to_int e.Broker.accepted));
  Bytes.set_int64_le b (o + 10) (Int64.bits_of_float e.Broker.reserve);
  Bytes.set_int64_le b (o + 18) (Int64.bits_of_float e.Broker.price_index);
  Bytes.set_int64_le b (o + 26) (Int64.bits_of_float e.Broker.lower);
  Bytes.set_int64_le b (o + 34) (Int64.bits_of_float e.Broker.upper);
  let o =
    match e.Broker.posted with
    | None ->
        Bytes.unsafe_set b (o + 42) '\000';
        o + 43
    | Some p ->
        Bytes.unsafe_set b (o + 42) '\001';
        Bytes.set_int64_le b (o + 43) (Int64.bits_of_float p);
        o + 51
  in
  Bytes.set_int64_le b o (Int64.bits_of_float e.Broker.payment);
  let x = e.Broker.x in
  let dim = Vec.dim x in
  let stop =
    match Vec.Sparse.of_dense x with
    | Some sx ->
        Bytes.unsafe_set b (o + 8) '\001';
        Bytes.set_int32_le b (o + 9) (Int32.of_int dim);
        let nnz = Vec.Sparse.nnz sx in
        Bytes.set_int32_le b (o + 13) (Int32.of_int nnz);
        let idx = sx.Vec.Sparse.idx and value = sx.Vec.Sparse.value in
        let p = o + 17 in
        for k = 0 to nnz - 1 do
          Bytes.set_int32_le b
            (p + (4 * k))
            (Int32.of_int (Array.unsafe_get idx k))
        done;
        let p = p + (4 * nnz) in
        for k = 0 to nnz - 1 do
          Bytes.set_int64_le b
            (p + (8 * k))
            (Int64.bits_of_float (Array.unsafe_get value k))
        done;
        p + (8 * nnz)
    | None ->
        Bytes.unsafe_set b (o + 8) '\000';
        Bytes.set_int32_le b (o + 9) (Int32.of_int dim);
        let p = o + 13 in
        for i = 0 to dim - 1 do
          Bytes.set_int64_le b
            (p + (8 * i))
            (Int64.bits_of_float (Array.unsafe_get x i))
        done;
        p + (8 * dim)
  in
  let len = stop - at - 8 in
  Bytes.set_int32_le b at (Int32.of_int len);
  stop - at

let encode_event e =
  let scratch = Bytes.create (frame_bound e) in
  let total = encode_frame scratch ~at:0 e in
  Frame.seal scratch ~stop:total;
  Bytes.sub_string scratch 8 (total - 8)

let encode_event_tagged ~tenant e =
  let scratch = Bytes.create (frame_bound e) in
  let total = encode_frame ~tenant scratch ~at:0 e in
  Frame.seal scratch ~stop:total;
  Bytes.sub_string scratch 8 (total - 8)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Everything after the version-dependent header; shared between the
   solo and tenant-tagged decoders.  The sparse branch validates what
   the encoder guarantees — [nnz ≤ dim] and strictly increasing
   in-range indices — because a CRC-colliding corruption could
   otherwise alias distinct coordinates or write out of range.  The
   dimension is capped at [Serial.max_dim] and every array length is
   checked against the bytes left before it is allocated, so a forged
   count costs an [Error], not memory. *)
let decode_body r =
  let t = Serial.take_u64 r in
  let kind_off = r.Serial.pos in
  match kind_of_code (Serial.take_u8 r) with
  | None -> fail "byte %d: bad round-kind code" kind_off
  | Some kind ->
      let accepted = Serial.take_u8 r <> 0 in
      let reserve = Serial.take_f64 r in
      let price_index = Serial.take_f64 r in
      let lower = Serial.take_f64 r in
      let upper = Serial.take_f64 r in
      let posted =
        if Serial.take_u8 r = 0 then None else Some (Serial.take_f64 r)
      in
      let payment = Serial.take_f64 r in
      let repr = Serial.take_u8 r in
      let dim_off = r.Serial.pos in
      let dim = Serial.take_u32 r in
      if dim < 1 then fail "byte %d: non-positive dimension" dim_off
      else if dim > Serial.max_dim then
        fail "byte %d: implausible dimension" dim_off
      else
        let x =
          if repr = 0 then Ok (Serial.take_f64s r dim)
          else begin
            let nnz_off = r.Serial.pos in
            let nnz = Serial.take_u32 r in
            if nnz > dim then
              fail "byte %d: sparse count %d exceeds dimension %d" nnz_off nnz
                dim
            else begin
              let idx_off = r.Serial.pos in
              if Serial.remaining r < 12 * nnz then
                raise (Serial.Short idx_off);
              let idx = Array.init nnz (fun _ -> Serial.take_u32 r) in
              let bad = ref (-1) in
              Array.iteri
                (fun k i ->
                  if !bad < 0 && (i >= dim || (k > 0 && i <= idx.(k - 1))) then
                    bad := k)
                idx;
              if !bad >= 0 then
                fail
                  "byte %d: sparse index %d out of range or not strictly \
                   increasing (dim %d)"
                  (idx_off + (4 * !bad))
                  idx.(!bad) dim
              else begin
                let value = Serial.take_f64s r nnz in
                let x = Vec.zeros dim in
                Array.iteri (fun k i -> x.(i) <- value.(k)) idx;
                Ok x
              end
            end
          end
        in
        Result.map
          (fun x ->
            {
              Broker.t;
              x;
              reserve;
              kind;
              price_index;
              lower;
              upper;
              posted;
              accepted;
              payment;
            })
          x

let decode_event payload =
  let r = Serial.reader payload in
  try
    let v = Serial.take_u8 r in
    if v <> version then fail "byte 0: unknown event version %d" v
    else decode_body r
  with Serial.Short off -> fail "truncated event payload at byte %d" off

let decode_event_tagged payload =
  let r = Serial.reader payload in
  try
    let v = Serial.take_u8 r in
    if v = version then Result.map (fun e -> (0, e)) (decode_body r)
    else if v = tagged_version then
      let tenant = Serial.take_u32 r in
      Result.map (fun e -> (tenant, e)) (decode_body r)
    else fail "byte 0: unknown event version %d" v
  with Serial.Short off -> fail "truncated event payload at byte %d" off

(* Rotation is the expensive barrier: it fsyncs a whole dirty segment
   (tens of milliseconds on a ~300 MB/s device), so the default
   segment is sized large enough that long-horizon runs rotate
   rarely.  Compaction granularity coarsens with it — callers that
   compact aggressively (the recovery driver, the tests) pass a small
   [segment_bytes] instead. *)
let default_segment_bytes = 64 * 1024 * 1024

let min_segment_bytes = 4 * 1024

type writer = {
  dir : string;
  segment_bytes : int;
  fsync_every_record : bool;
  mutable fd : Unix.file_descr;
  mutable path : string;
  mutable written : int;
  mutable durable : int;
  mutable next : int;
  mutable seg_events : int;
  mutable closed : bool;
  (* User-level write batch: frames accumulate in [batch] up to
     [batch_pos] and drain to the file descriptor in one write —
     per-event channel or syscall round trips cost more than the
     encoding itself (OCaml 5 takes the channel lock per call).
     Batched bytes are no less durable than channel-buffered ones:
     both are lost by a crash and both are covered by every fsync
     barrier. *)
  mutable batch : Bytes.t;
  mutable batch_pos : int;
}

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let open_segment dir start =
  let path = Filename.concat dir (segment_name start) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd (Bytes.of_string magic) 0 (String.length magic);
  (path, fd)

let drain w =
  if w.batch_pos > 0 then begin
    Frame.seal w.batch ~stop:w.batch_pos;
    write_all w.fd w.batch 0 w.batch_pos;
    w.batch_pos <- 0
  end

let flush_fsync w =
  drain w;
  Unix.fsync w.fd;
  w.durable <- w.written

let create_writer ?(segment_bytes = default_segment_bytes)
    ?(fsync_every_record = false) ~dir ~start () =
  if start < 0 then invalid_arg "Journal.create_writer: negative start round";
  let segment_bytes = max min_segment_bytes segment_bytes in
  let path, fd = open_segment dir start in
  {
    dir;
    segment_bytes;
    fsync_every_record;
    fd;
    path;
    written = String.length magic;
    durable = 0;
    next = start;
    seg_events = 0;
    closed = false;
    batch = Bytes.create (64 * 1024);
    batch_pos = 0;
  }

let check_open fname w =
  if w.closed then invalid_arg (fname ^ ": writer is closed")

let append w e =
  check_open "Journal.append" w;
  if e.Broker.t <> w.next then
    invalid_arg
      (Printf.sprintf "Journal.append: expected round %d, got round %d" w.next
         e.Broker.t);
  if w.written >= w.segment_bytes && w.seg_events > 0 then begin
    flush_fsync w;
    Unix.close w.fd;
    let path, fd = open_segment w.dir e.Broker.t in
    w.path <- path;
    w.fd <- fd;
    w.written <- String.length magic;
    w.durable <- 0;
    w.seg_events <- 0
  end;
  let bound = frame_bound e in
  if bound > Bytes.length w.batch - w.batch_pos then begin
    drain w;
    if bound > Bytes.length w.batch then w.batch <- Bytes.create bound
  end;
  let total = encode_frame w.batch ~at:w.batch_pos e in
  w.batch_pos <- w.batch_pos + total;
  w.written <- w.written + total;
  w.seg_events <- w.seg_events + 1;
  w.next <- w.next + 1;
  if w.fsync_every_record then flush_fsync w

let sync w =
  check_open "Journal.sync" w;
  flush_fsync w

let durable_offset w = w.durable

let active_segment w = w.path

let next_round w = w.next

let close w =
  if not w.closed then begin
    flush_fsync w;
    Unix.close w.fd;
    w.closed <- true
  end

let abandon w =
  if not w.closed then begin
    Unix.close w.fd;
    w.closed <- true
  end

type tail = Clean | Torn of { segment : string; offset : int }

let segments ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match segment_start name with
           | Some r -> Some (r, Filename.concat dir name)
           | None -> None)
    |> List.sort compare

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let read_dir ~dir =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Journal.read_dir: " ^ m)) fmt in
  let segs = segments ~dir in
  let n_segs = List.length segs in
  let rec walk acc expected i = function
    | [] -> Ok (List.rev acc, Clean)
    | (start, path) :: rest -> (
        let is_last = i = n_segs - 1 in
        let name = Filename.basename path in
        let content = read_file path in
        (* A final segment whose magic is short or mangled is the
           rotation crash window: the header write itself tore, and
           nothing in the segment was ever covered by an fsync.  Treat
           the whole segment as the torn tail.  Anywhere earlier the
           same damage is corruption and refused. *)
        if
          String.length content < String.length magic
          || String.sub content 0 (String.length magic) <> magic
        then
          if is_last then Ok (List.rev acc, Torn { segment = path; offset = 0 })
          else fail "segment %s: bad or truncated magic before the final segment" name
        else
          match Frame.decode ~pos:(String.length magic) content with
          | Error msg -> fail "segment %s: %s" name msg
          | Ok (payloads, frame_tail) -> (
              let tail_info =
                match frame_tail with
                | Frame.Clean -> Ok Clean
                | Frame.Torn offset ->
                    if is_last then Ok (Torn { segment = path; offset })
                    else
                      fail
                        "segment %s: torn record at byte %d before the final \
                         segment"
                        name offset
              in
              match tail_info with
              | Error _ as e -> e
              | Ok tail -> (
                  let rec decode_all acc expected j = function
                    | [] -> Ok (acc, expected)
                    | p :: ps -> (
                        match decode_event p with
                        | Error msg -> fail "segment %s: record %d: %s" name j msg
                        | Ok e ->
                            let t = e.Broker.t in
                            if j = 0 && t <> start then
                              fail
                                "segment %s: first event is round %d but the \
                                 name says %d"
                                name t start
                            else if Option.is_some expected
                                    && t <> Option.get expected then
                              fail
                                "segment %s: round gap (expected %d, found %d)"
                                name (Option.get expected) t
                            else decode_all (e :: acc) (Some (t + 1)) (j + 1) ps)
                  in
                  match decode_all acc expected 0 payloads with
                  | Error _ as e -> e
                  | Ok (acc, expected) -> (
                      match tail with
                      | Clean -> walk acc expected (i + 1) rest
                      | Torn _ as torn ->
                          (* frame_tail torn implies is_last, so rest = [] *)
                          Ok (List.rev acc, torn))))
    )
  in
  walk [] None 0 segs
