(* Unit and property tests for the dm_store durability layer: frame
   codec, journal writer/reader, snapshot store, crash recovery and
   the cross-format snapshot equivalence the recovery path relies
   on. *)

module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Mechanism = Dm_market.Mechanism
module Broker = Dm_market.Broker
module Frame = Dm_store.Frame
module Journal = Dm_store.Journal
module Snapshots = Dm_store.Snapshots
module Store = Dm_store.Store
module Fleet_store = Dm_store.Fleet
module Longrun = Dm_experiments.Longrun
module Recover = Dm_experiments.Recover
module Fleet = Dm_experiments.Fleet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Fleet stores nest per-tenant snapshot directories inside [dir]. *)
let rec rm_rf_rec dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf_rec p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Scratch stores live under the build sandbox's cwd, never /tmp. *)
let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".dm_store_test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Like [with_dir], but the directory may hold tenant subdirectories
   and [Fleet.create] makes it itself. *)
let with_fleet_dir f =
  incr dir_counter;
  let dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".dm_fleet_test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf_rec dir;
  Fun.protect ~finally:(fun () -> rm_rf_rec dir) (fun () -> f dir)

let flip_byte path ~offset =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write")

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let fbits = Int64.bits_of_float

let event_equal (a : Broker.event) (b : Broker.event) =
  let obits = function None -> None | Some v -> Some (fbits v) in
  let vec_bits v = Array.init (Vec.dim v) (fun i -> fbits (Vec.get v i)) in
  a.Broker.t = b.Broker.t && a.kind = b.kind && a.accepted = b.accepted
  && fbits a.reserve = fbits b.reserve
  && fbits a.price_index = fbits b.price_index
  && fbits a.lower = fbits b.lower
  && fbits a.upper = fbits b.upper
  && obits a.posted = obits b.posted
  && fbits a.payment = fbits b.payment
  && vec_bits a.x = vec_bits b.x

(* A random but semantically shaped event; sparse-ish feature vectors
   (75% zeros) exercise the Vec.Sparse storage path, dense ones the
   float loop.  Non-zero entries stay away from -0., which sparse
   storage normalizes to +0. by design. *)
let gen_event ?dim rng ~t =
  let dim = match dim with Some d -> d | None -> 1 + Rng.int rng 40 in
  let sparse_ish = Rng.int rng 2 = 0 in
  let x =
    Vec.init dim (fun _ ->
        if sparse_ish && Rng.int rng 4 <> 0 then 0.
        else ((Rng.float rng -. 0.5) *. 8.) +. 0.001)
  in
  let kind =
    match Rng.int rng 4 with
    | 0 -> Broker.Exploratory
    | 1 -> Broker.Conservative
    | 2 -> Broker.Skipped
    | _ -> Broker.Baseline
  in
  let price = 0.25 +. Rng.float rng in
  match kind with
  | Broker.Skipped ->
      { Broker.t; x; reserve = Rng.float rng; kind; price_index = nan;
        lower = nan; upper = nan; posted = None; accepted = false; payment = 0. }
  | Broker.Baseline ->
      let accepted = Rng.int rng 2 = 0 in
      { Broker.t; x; reserve = price; kind; price_index = nan; lower = nan;
        upper = nan; posted = Some price; accepted;
        payment = (if accepted then price else 0.) }
  | _ ->
      let accepted = Rng.int rng 2 = 0 in
      { Broker.t; x; reserve = Rng.float rng; kind;
        price_index = Rng.float rng; lower = -.Rng.float rng;
        upper = 1. +. Rng.float rng; posted = Some price; accepted;
        payment = (if accepted then price else 0.) }

(* ------------------------------------------------------------------ *)
(* Frame: CRC32 framing                                                *)
(* ------------------------------------------------------------------ *)

let frame_string payloads =
  let buf = Buffer.create 256 in
  List.iter (Frame.append buf) payloads;
  Buffer.contents buf

(* Record end offsets: [e1; e2; ...; total]. *)
let frame_ends payloads =
  List.rev
    (List.fold_left
       (fun acc p ->
         let prev = match acc with [] -> 0 | e :: _ -> e in
         (prev + Frame.frame_bytes p) :: acc)
       [] payloads)

let firstn n l = List.filteri (fun i _ -> i < n) l

let prop_roundtrip =
  prop "framed records round-trip cleanly" 300
    QCheck.(small_list (string_of_size Gen.(int_range 0 48)))
    (fun payloads ->
      match Frame.decode (frame_string payloads) with
      | Ok (ps, Frame.Clean) -> ps = payloads
      | Ok (_, Frame.Torn _) -> QCheck.Test.fail_report "torn on clean input"
      | Error m -> QCheck.Test.fail_reportf "decode: %s" m)

let prop_truncation =
  prop "truncation yields the longest valid prefix" 500
    QCheck.(pair (small_list (string_of_size Gen.(int_range 0 32))) small_nat)
    (fun (payloads, cut_seed) ->
      let src = frame_string payloads in
      let cut = cut_seed mod (String.length src + 1) in
      let ends = frame_ends payloads in
      let expect_n = List.length (List.filter (fun e -> e <= cut) ends) in
      let boundary = cut = 0 || List.mem cut ends in
      let torn_at =
        List.fold_left (fun acc e -> if e <= cut then e else acc) 0 ends
      in
      match Frame.decode (String.sub src 0 cut) with
      | Ok (ps, tail) ->
          ps = firstn expect_n payloads
          && (match tail with
             | Frame.Clean -> boundary
             | Frame.Torn off -> (not boundary) && off = torn_at)
      | Error m -> QCheck.Test.fail_reportf "decode: %s" m)

let prop_corruption =
  prop "bit flips before the tail never pass as clean" 500
    QCheck.(
      triple
        (small_list (string_of_size Gen.(int_range 0 32)))
        small_nat small_nat)
    (fun (extra, pos_seed, bit_seed) ->
      (* Two fixed records up front guarantee a non-tail target. *)
      let payloads = "alpha-payload" :: "beta-payload" :: extra in
      let src = frame_string payloads in
      let ends = frame_ends payloads in
      let last_start = List.nth ends (List.length ends - 2) in
      let pos = pos_seed mod last_start in
      let corrupted = Bytes.of_string src in
      Bytes.set corrupted pos
        (Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl (bit_seed mod 8))));
      (* index of the record holding the flipped byte *)
      let corrupt_idx = List.length (List.filter (fun e -> e <= pos) ends) in
      match Frame.decode (Bytes.to_string corrupted) with
      | Error _ -> true
      | Ok (ps, tail) ->
          (* A flipped length field can masquerade as a torn tail, but
             only by discarding everything from the damaged record on —
             never by altering or inventing a payload. *)
          tail <> Frame.Clean
          && List.length ps <= corrupt_idx
          && ps = firstn (List.length ps) payloads)

let test_seal_matches_append () =
  let payloads =
    [ ""; "x"; String.init 16 Char.chr;
      String.init 41 (fun i -> Char.chr (i * 3 land 0xff)); "0123456789abcdef0" ]
  in
  let reference = frame_string payloads in
  (* Encode the same frames with blank CRCs, then seal the batch. *)
  let b = Bytes.make (String.length reference) '\000' in
  let at = ref 0 in
  List.iter
    (fun p ->
      Bytes.set_int32_le b !at (Int32.of_int (String.length p));
      Bytes.blit_string p 0 b (!at + 8) (String.length p);
      at := !at + 8 + String.length p)
    payloads;
  Frame.seal b ~stop:!at;
  check_bool "sealed batch = per-record framing" true
    (String.equal (Bytes.to_string b) reference);
  (match Frame.decode (Bytes.to_string b) with
  | Ok (ps, Frame.Clean) -> check_bool "decodes cleanly" true (ps = payloads)
  | _ -> Alcotest.fail "sealed batch did not decode cleanly");
  Alcotest.check_raises "mid-frame stop refused"
    (Invalid_argument "Frame.seal: truncated frame") (fun () ->
      Frame.seal b ~stop:(!at - 1))

(* ------------------------------------------------------------------ *)
(* Journal: event codec and segmented writer/reader                    *)
(* ------------------------------------------------------------------ *)

let prop_event_codec =
  prop "event codec round-trips every field bit-for-bit" 300
    QCheck.(pair (int_range 0 100_000) (int_range 0 10_000))
    (fun (seed, t) ->
      let e = gen_event (Rng.create seed) ~t in
      match Journal.decode_event (Journal.encode_event e) with
      | Ok e' -> event_equal e e'
      | Error m -> QCheck.Test.fail_reportf "decode_event: %s" m)

let tagged_dims = [| 1; 2; 8; 128 |]

let prop_tagged_codec =
  prop "tenant-tagged codec round-trips at n in {1, 2, 8, 128}" 200
    QCheck.(triple (int_range 0 100_000) (int_range 0 10_000) (int_range 0 3))
    (fun (seed, t, di) ->
      let rng = Rng.create seed in
      let e = gen_event ~dim:tagged_dims.(di) rng ~t in
      let tenant =
        match Rng.int rng 4 with
        | 0 -> 0
        | 1 -> 0xFFFF_FFFF (* the 2^32 - 1 header-field ceiling *)
        | _ -> Rng.int rng 1_000_000
      in
      match
        Journal.decode_event_tagged (Journal.encode_event_tagged ~tenant e)
      with
      | Ok (tn, e') -> tn = tenant && event_equal e e'
      | Error m -> QCheck.Test.fail_reportf "decode_event_tagged: %s" m)

let test_tagged_decoder_reads_v1 () =
  let e = gen_event (Rng.create 3) ~t:12 in
  match Journal.decode_event_tagged (Journal.encode_event e) with
  | Ok (0, e') -> check_bool "tenant 0, same bits" true (event_equal e e')
  | Ok (tn, _) -> Alcotest.failf "v1 payload decoded as tenant %d" tn
  | Error m -> Alcotest.fail m

let test_unknown_version_refused () =
  let e = gen_event (Rng.create 4) ~t:0 in
  let p = Bytes.of_string (Journal.encode_event e) in
  Bytes.set p 0 '\003';
  let p = Bytes.to_string p in
  (match Journal.decode_event p with
  | Error m ->
      check_bool "v1 decoder names offset and version" true
        (contains m "byte 0" && contains m "version 3")
  | Ok _ -> Alcotest.fail "version 3 accepted by decode_event");
  (match Journal.decode_event_tagged p with
  | Error m ->
      check_bool "tagged decoder names offset and version" true
        (contains m "byte 0" && contains m "version 3")
  | Ok _ -> Alcotest.fail "version 3 accepted by decode_event_tagged");
  (* the v1-only decoder must also refuse tagged payloads, not read
     the tenant id as the round field *)
  match Journal.decode_event (Journal.encode_event_tagged ~tenant:1 e) with
  | Error m -> check_bool "v1 decoder refuses v2" true (contains m "version 2")
  | Ok _ -> Alcotest.fail "decode_event read a tagged payload"

(* A hand-built version-1 payload whose feature encoding we control.
   Fixed prefix: version (1) + round (8) + kind (1) + accepted (1) +
   four f64 fields (32) + posted=None flag (1) + payment (8) + repr
   flag (1) + dim (4); a sparse body then has the nnz count at byte 57
   and the index run at byte 61. *)
let payload ~repr ~dim body =
  let b = Buffer.create 128 in
  let f64 v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_char b '\001' (* version 1 *);
  Buffer.add_int64_le b 5L (* round *);
  Buffer.add_char b '\001' (* Exploratory *);
  Buffer.add_char b '\000' (* accepted = false *);
  f64 0.25 (* reserve *);
  f64 0.5 (* price_index *);
  f64 (-0.5) (* lower *);
  f64 1.5 (* upper *);
  Buffer.add_char b '\000' (* posted = None *);
  f64 0. (* payment *);
  Buffer.add_char b (Char.chr repr);
  u32 dim;
  body ~f64 ~u32;
  Buffer.contents b

let sparse_payload ~dim ~idx =
  payload ~repr:1 ~dim (fun ~f64 ~u32 ->
      u32 (Array.length idx);
      Array.iter u32 idx;
      Array.iter (fun _ -> f64 1.0) idx)

let dense_payload ~dim values =
  payload ~repr:0 ~dim (fun ~f64 ~u32:_ -> Array.iter f64 values)

let test_sparse_validation () =
  (* well-formed control: strictly increasing in-range indices *)
  (match Journal.decode_event (sparse_payload ~dim:8 ~idx:[| 0; 4; 7 |]) with
  | Ok e ->
      check_int "dim" 8 (Vec.dim e.Broker.x);
      List.iter
        (fun i -> check_bool "coordinate set" true (Vec.get e.Broker.x i = 1.0))
        [ 0; 4; 7 ]
  | Error m -> Alcotest.fail m);
  let refused name payload ~at ~needle =
    match Journal.decode_event payload with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error m ->
        check_bool
          (name ^ " names byte offset")
          true
          (contains m (Printf.sprintf "byte %d" at) && contains m needle)
  in
  refused "nnz > dim"
    (sparse_payload ~dim:2 ~idx:[| 0; 1; 1 |])
    ~at:57 ~needle:"exceeds dimension";
  refused "out-of-range index"
    (sparse_payload ~dim:8 ~idx:[| 2; 9 |])
    ~at:65 ~needle:"out of range";
  refused "duplicate index"
    (sparse_payload ~dim:8 ~idx:[| 3; 3 |])
    ~at:65 ~needle:"strictly increasing";
  refused "unsorted indices"
    (sparse_payload ~dim:8 ~idx:[| 5; 2 |])
    ~at:65 ~needle:"strictly increasing";
  (* the tagged decoder shares the body validation *)
  match Journal.decode_event_tagged (sparse_payload ~dim:8 ~idx:[| 5; 2 |]) with
  | Ok _ -> Alcotest.fail "tagged decoder accepted unsorted indices"
  | Error m -> check_bool "tagged decoder refuses too" true (contains m "byte")

(* A forged dimension must cost an [Error], not memory: a 65-byte
   dense payload claiming 2^22 coordinates would otherwise allocate
   32 MiB before running out of bytes, and a sparse one holds a single
   entry yet names a dimension above the decoder ceiling. *)
let test_forged_dimension_bounded () =
  let bounded name payload =
    let refused, words =
      Test_env.allocated_words (fun () ->
          Result.is_error (Journal.decode_event payload))
    in
    check_bool (name ^ " refused") true refused;
    check_bool
      (Printf.sprintf "%s allocates under 1 MiB (%.0f words)" name words)
      true
      (words < float_of_int (1 lsl 20 / 8))
  in
  bounded "dense dim 2^22" (dense_payload ~dim:(1 lsl 22) [| 1.0 |]);
  bounded "dense dim at the ceiling"
    (dense_payload ~dim:Dm_linalg.Serial.max_dim [| 1.0 |]);
  bounded "sparse dim above the ceiling"
    (sparse_payload ~dim:(Dm_linalg.Serial.max_dim + 1) ~idx:[| 0 |])

let test_segment_start_boundary () =
  let big = 1_000_000_000_000 (* 10^12 widens past the %012d pad *) in
  check_bool "10^12 round-trips" true
    (Journal.segment_start (Journal.segment_name big) = Some big);
  check_bool "padded names still parse" true
    (Journal.segment_start "seg-000000000042.dmj" = Some 42);
  check_bool "int_of_string overflow rejected" true
    (Journal.segment_start "seg-99999999999999999999.dmj" = None);
  check_bool "non-digit run rejected" true
    (Journal.segment_start "seg-0000000000ab.dmj" = None);
  check_bool "empty digit run rejected" true
    (Journal.segment_start "seg-.dmj" = None);
  (* a writer rotated past the boundary must be found by the reader *)
  with_dir @@ fun dir ->
  let rng = Rng.create 31 in
  let events = List.init 5 (fun i -> gen_event rng ~t:(big + i)) in
  let w = Journal.create_writer ~dir ~start:big () in
  List.iter (Journal.append w) events;
  Journal.close w;
  match Journal.read_dir ~dir with
  | Ok (es, Journal.Clean) ->
      check_int "13-digit segment read back" 5 (List.length es);
      check_bool "rounds preserved" true
        (List.for_all2 (fun a b -> a.Broker.t = b.Broker.t) events es)
  | Ok (_, Journal.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error m -> Alcotest.fail m

let write_journal ~dir ~seed ~n =
  let rng = Rng.create seed in
  let events = List.init n (fun t -> gen_event rng ~t) in
  let w = Journal.create_writer ~segment_bytes:4096 ~dir ~start:0 () in
  List.iter (Journal.append w) events;
  (events, w)

let test_writer_rotation_roundtrip () =
  with_dir @@ fun dir ->
  let n = 300 in
  let events, w = write_journal ~dir ~seed:99 ~n in
  check_int "next_round" n (Journal.next_round w);
  (try
     Journal.append w (List.hd events);
     Alcotest.fail "round gap accepted"
   with Invalid_argument _ -> ());
  Journal.close w;
  check_bool "rotation produced several segments" true
    (List.length (Journal.segments ~dir) > 1);
  match Journal.read_dir ~dir with
  | Ok (es, Journal.Clean) ->
      check_int "event count" n (List.length es);
      List.iter2
        (fun a b -> check_bool "event bits" true (event_equal a b))
        events es
  | Ok (_, Journal.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error m -> Alcotest.fail m

let test_torn_tail_tolerated () =
  with_dir @@ fun dir ->
  let n = 120 in
  let _, w = write_journal ~dir ~seed:7 ~n in
  Journal.close w;
  let segs = Journal.segments ~dir in
  let last = snd (List.nth segs (List.length segs - 1)) in
  let size = (Unix.stat last).Unix.st_size in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 last in
  output_string oc "\x01garbage-after-crash";
  close_out oc;
  (match Journal.read_dir ~dir with
  | Ok (es, Journal.Torn { segment; offset }) ->
      check_int "all events intact" n (List.length es);
      check_bool "torn in the final segment" true (String.equal segment last);
      check_int "torn exactly at the durable size" size offset
  | Ok (_, Journal.Clean) -> Alcotest.fail "trailing garbage read as clean"
  | Error m -> Alcotest.fail m);
  (* cutting into the final record loses it but stays recoverable *)
  Unix.truncate last (size - 3);
  match Journal.read_dir ~dir with
  | Ok (es, Journal.Torn _) -> check_int "one event lost" (n - 1) (List.length es)
  | Ok (_, Journal.Clean) -> Alcotest.fail "truncation read as clean"
  | Error m -> Alcotest.fail m

let test_pretail_corruption_refused () =
  with_dir @@ fun dir ->
  let n = 120 in
  let _, w = write_journal ~dir ~seed:13 ~n in
  Journal.close w;
  let segs = Journal.segments ~dir in
  check_bool "multiple segments" true (List.length segs >= 2);
  let first = snd (List.hd segs) in
  (* One flipped payload byte well before the tail: offset 18 is magic
     (8) + frame header (8) + 2 bytes into the first record. *)
  flip_byte first ~offset:18;
  (match Journal.read_dir ~dir with
  | Error m -> check_bool "names Journal.read_dir" true (contains m "Journal.read_dir")
  | Ok _ -> Alcotest.fail "pre-tail corruption accepted");
  flip_byte first ~offset:18;
  (* a mangled magic before the final segment is corruption too *)
  flip_byte first ~offset:0;
  (match Journal.read_dir ~dir with
  | Error m -> check_bool "magic named" true (contains m "magic")
  | Ok _ -> Alcotest.fail "bad pre-tail magic accepted");
  flip_byte first ~offset:0;
  (* ...but on the final segment it is the rotation crash window *)
  let last = snd (List.nth segs (List.length segs - 1)) in
  flip_byte last ~offset:0;
  match Journal.read_dir ~dir with
  | Ok (es, Journal.Torn { segment; offset }) ->
      check_bool "final segment dropped whole" true
        (String.equal segment last && offset = 0);
      check_bool "earlier segments kept" true
        (List.length es > 0 && List.length es < n)
  | Ok (_, Journal.Clean) -> Alcotest.fail "mangled final magic read as clean"
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Snapshots: atomic store, corrupt files skipped                      *)
(* ------------------------------------------------------------------ *)

(* Drive a mechanism over the Longrun stream; the market index is a
   pure function of the round so every mechanism sees the same
   buyers. *)
let drive setup mech t =
  let x, reserve = setup.Longrun.workload t in
  let market =
    (1.2 *. Vec.sum x /. float_of_int setup.Longrun.dim) +. setup.Longrun.noise t
  in
  let d, _ = Mechanism.step mech ~x ~reserve ~market_index:market in
  match d with
  | Mechanism.Skip -> Int64.min_int
  | Mechanism.Post { price; _ } -> fbits price

let test_snapshots_newest_skips_corrupt () =
  with_dir @@ fun dir ->
  let setup = Longrun.make_setup ~dim:4 ~seed:11 ~rounds:200 () in
  let mech = Longrun.mechanism setup (snd (List.nth Longrun.variants 2)) in
  for t = 0 to 99 do ignore (drive setup mech t) done;
  Snapshots.write ~dir ~round:100 mech;
  let b100 = Mechanism.snapshot_binary mech in
  for t = 100 to 199 do ignore (drive setup mech t) done;
  Snapshots.write ~dir ~round:200 mech;
  let b200 = Mechanism.snapshot_binary mech in
  check_bool "both rounds listed" true (Snapshots.rounds ~dir = [ 100; 200 ]);
  (match Snapshots.newest ~dir with
  | Some (200, m) ->
      check_bool "newest state exact" true
        (String.equal b200 (Mechanism.snapshot_binary m))
  | _ -> Alcotest.fail "newest did not pick round 200");
  (* damage the newest snapshot mid-payload: load refuses, newest
     falls back to the older valid one *)
  let snap200 = Filename.concat dir (Snapshots.file_name 200) in
  flip_byte snap200 ~offset:((Unix.stat snap200).Unix.st_size / 2);
  (match Snapshots.load ~dir ~round:200 with
  | Error m -> check_bool "load names a reason" true (contains m ":")
  | Ok _ -> Alcotest.fail "corrupt snapshot loaded");
  match Snapshots.newest ~dir with
  | Some (100, m) ->
      check_bool "fallback state exact" true
        (String.equal b100 (Mechanism.snapshot_binary m))
  | _ -> Alcotest.fail "newest did not fall back to round 100"

let test_restore_error_names_position () =
  match Mechanism.restore "dm-mechanism-snapshot v9000\nnonsense" with
  | Ok _ -> Alcotest.fail "garbage restored"
  | Error m ->
      check_bool "prefixed" true (contains m "Mechanism.restore");
      check_bool "names the byte" true (contains m "byte 0")

(* ------------------------------------------------------------------ *)
(* Store: crash, recovery, compaction                                  *)
(* ------------------------------------------------------------------ *)

let test_store_crash_recover_compact () =
  with_dir @@ fun dir ->
  let rounds = 400 and crash = 250 in
  let setup = Longrun.make_setup ~dim:4 ~seed:17 ~rounds () in
  let variant = snd (List.hd Longrun.variants) in
  let store = Store.create ~segment_bytes:4096 ~snapshot_every:64 ~dir ~start:0 () in
  let mech = Longrun.mechanism setup variant in
  ignore
    (Broker.run
       ~journal:(Store.sink store ~mech)
       ~policy:(Broker.Ellipsoid_pricing mech) ~model:setup.Longrun.model
       ~noise:setup.Longrun.noise ~workload:setup.Longrun.workload
       ~rounds:crash ());
  Store.simulate_crash store ~keep:0.5 ~junk:"torn-tail-garbage";
  let fresh () = Longrun.mechanism setup variant in
  let rec1 = ok_or_fail (Store.recover ~initial:fresh ~dir ()) in
  check_bool "recovered from a snapshot" true (rec1.Store.snapshot_round > 0);
  check_bool "journal covers the prefix" true
    (Array.length rec1.Store.events = rec1.Store.next_round);
  check_bool "prefix within the crash point" true (rec1.Store.next_round <= crash);
  check_bool "prefix reaches the snapshot" true
    (rec1.Store.next_round >= rec1.Store.snapshot_round);
  (* pre-tail byte flip: recovery must refuse, not reprice *)
  let first_seg = snd (List.hd (Journal.segments ~dir)) in
  flip_byte first_seg ~offset:18;
  (match Store.recover ~dir () with
  | Error m -> check_bool "Module.function: reason" true (contains m ":")
  | Ok _ -> Alcotest.fail "recover accepted pre-tail corruption");
  flip_byte first_seg ~offset:18;
  let state1 = Mechanism.snapshot_binary (Option.get rec1.Store.mechanism) in
  let deleted = Store.compact ~dir in
  check_bool "compaction removed covered segments" true (deleted >= 1);
  let rec2 = ok_or_fail (Store.recover ~initial:fresh ~dir ()) in
  check_bool "compaction preserves the recovered state" true
    (rec2.Store.next_round = rec1.Store.next_round
    && String.equal state1 (Mechanism.snapshot_binary (Option.get rec2.Store.mechanism)))

(* Regression: [Store.compact] used to key its coverage decision off
   the newest snapshot *file name* rather than the newest snapshot
   that validates.  With the newest snapshot corrupted, recovery falls
   back to an older one — but compaction had already deleted the
   segments that fallback needs to replay from, stranding the store. *)
let test_store_compact_corrupt_newest_snapshot () =
  with_dir @@ fun dir ->
  let rounds = 400 in
  let setup = Longrun.make_setup ~dim:4 ~seed:19 ~rounds () in
  let variant = snd (List.hd Longrun.variants) in
  let store =
    Store.create ~segment_bytes:4096 ~snapshot_every:64 ~dir ~start:0 ()
  in
  let mech = Longrun.mechanism setup variant in
  ignore
    (Broker.run
       ~journal:(Store.sink store ~mech)
       ~policy:(Broker.Ellipsoid_pricing mech) ~model:setup.Longrun.model
       ~noise:setup.Longrun.noise ~workload:setup.Longrun.workload ~rounds ());
  Store.close store;
  let snaps = Snapshots.rounds ~dir in
  check_bool "several snapshots on disk" true (List.length snaps >= 2);
  let newest = List.fold_left max 0 snaps in
  let snap = Filename.concat dir (Snapshots.file_name newest) in
  flip_byte snap ~offset:((Unix.stat snap).Unix.st_size / 2);
  let before = ok_or_fail (Store.recover ~dir ()) in
  check_bool "recovery fell back below the corrupt newest" true
    (before.Store.snapshot_round > 0 && before.Store.snapshot_round < newest);
  let state_before =
    Mechanism.snapshot_binary (Option.get before.Store.mechanism)
  in
  ignore (Store.compact ~dir);
  let after = ok_or_fail (Store.recover ~dir ()) in
  check_bool "compaction kept the fallback's replay segments" true
    (after.Store.next_round = before.Store.next_round
    && after.Store.snapshot_round = before.Store.snapshot_round
    && String.equal state_before
         (Mechanism.snapshot_binary (Option.get after.Store.mechanism)))

let test_sharded_journal_identity () =
  let rounds = 400 in
  let setup = Longrun.make_setup ~dim:8 ~seed:23 ~rounds () in
  let variant = snd (List.nth Longrun.variants 3) in
  let collect run_fn =
    let buf = Buffer.create (1 lsl 16) in
    let mech = Longrun.mechanism setup variant in
    ignore
      (run_fn
         ~journal:(fun e -> Buffer.add_string buf (Journal.encode_event e))
         ~policy:(Broker.Ellipsoid_pricing mech));
    Buffer.contents buf
  in
  let sequential =
    collect (fun ~journal ~policy ->
        Broker.run ~journal ~policy ~model:setup.Longrun.model
          ~noise:setup.Longrun.noise ~workload:setup.Longrun.workload ~rounds ())
  in
  let sharded =
    collect (fun ~journal ~policy ->
        Broker.run_sharded ~journal ~mode:Broker.Exact ~shards:5 ~policy
          ~model:setup.Longrun.model ~noise:setup.Longrun.noise
          ~workload:setup.Longrun.workload ~rounds ())
  in
  check_bool "sharded journal stream bit-identical" true
    (String.equal sequential sharded)

(* ------------------------------------------------------------------ *)
(* Fleet: shared group-commit journal                                  *)
(* ------------------------------------------------------------------ *)

let test_fleet_interleaved_roundtrip () =
  with_fleet_dir @@ fun dir ->
  let tenants = 3 in
  let rng = Rng.create 77 in
  let fleet = Fleet_store.create ~segment_bytes:4096 ~dir ~tenants () in
  let rounds = Array.make tenants 0 in
  let all = ref [] in
  for _ = 1 to 300 do
    let tn = Rng.int rng tenants in
    let e = gen_event rng ~t:rounds.(tn) in
    Fleet_store.append fleet ~tenant:tn e;
    rounds.(tn) <- rounds.(tn) + 1;
    all := (tn, e) :: !all
  done;
  let all = List.rev !all in
  (* round-order and range violations are refused before any write *)
  (try
     Fleet_store.append fleet ~tenant:0 (gen_event rng ~t:0);
     Alcotest.fail "per-tenant round gap accepted"
   with Invalid_argument _ -> ());
  (try
     Fleet_store.append fleet ~tenant:tenants (gen_event rng ~t:0);
     Alcotest.fail "out-of-range tenant accepted"
   with Invalid_argument _ -> ());
  Fleet_store.close fleet;
  check_bool "rotation produced several shared segments" true
    (List.length (Journal.segments ~dir) > 1);
  match Fleet_store.read_dir ~dir with
  | Ok (got, Fleet_store.Clean) ->
      check_int "record count" (List.length all) (List.length got);
      List.iter2
        (fun (tn, e) (tn', e') ->
          check_int "tenant tag" tn tn';
          check_bool "event bits" true (event_equal e e'))
        all got
  | Ok (_, Fleet_store.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error m -> Alcotest.fail m

let test_fleet_latency_bound () =
  with_fleet_dir @@ fun dir ->
  let fleet = Fleet_store.create ~latency_appends:8 ~dir ~tenants:1 () in
  let rng = Rng.create 5 in
  for t = 0 to 6 do
    Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t)
  done;
  check_int "no group commit below the latency bound" 0
    (Fleet_store.fsync_count fleet);
  check_int "nothing durable yet" 0 (Fleet_store.durable_offset fleet);
  Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t:7);
  check_int "one group fsync at the bound" 1 (Fleet_store.fsync_count fleet);
  check_bool "batch durable after the commit" true
    (Fleet_store.durable_offset fleet > 0);
  for t = 8 to 14 do
    Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t)
  done;
  check_int "no further fsync below the next bound" 1
    (Fleet_store.fsync_count fleet);
  Fleet_store.sync fleet;
  check_int "explicit sync is a group barrier" 2 (Fleet_store.fsync_count fleet);
  check_int "fifteen records appended" 15 (Fleet_store.appended fleet);
  Fleet_store.close fleet

(* Crash property: whatever [keep]/[junk] does to the torn tail, the
   surviving records are a prefix of the global append order — the
   same suffix is lost for every tenant — and everything covered by
   the last group fsync survives. *)
let prop_fleet_crash_prefix =
  prop "fleet crash loses one shared global suffix" 15
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, crash_seed) ->
      with_fleet_dir @@ fun dir ->
      let rng = Rng.create seed in
      let tenants = 1 + Rng.int rng 3 in
      let total = 40 + Rng.int rng 80 in
      let sync_at = Rng.int rng total in
      let fleet =
        Fleet_store.create
          ~latency_appends:(1 + Rng.int rng 16)
          ~dir ~tenants ()
      in
      let rounds = Array.make tenants 0 in
      let all = ref [] in
      let synced = ref 0 in
      for k = 0 to total - 1 do
        let tn = Rng.int rng tenants in
        let e = gen_event rng ~t:rounds.(tn) in
        Fleet_store.append fleet ~tenant:tn e;
        rounds.(tn) <- rounds.(tn) + 1;
        all := (tn, e) :: !all;
        if k = sync_at then begin
          Fleet_store.sync fleet;
          synced := Fleet_store.appended fleet
        end
      done;
      let all = List.rev !all in
      let crng = Rng.create crash_seed in
      let junk =
        String.init (1 + Rng.int crng 24) (fun _ -> Char.chr (Rng.int crng 256))
      in
      Fleet_store.simulate_crash fleet ~keep:(Rng.float crng) ~junk;
      match Fleet_store.read_dir ~dir with
      | Error m -> QCheck.Test.fail_reportf "read_dir after crash: %s" m
      | Ok (got, _tail) ->
          let k = List.length got in
          if k < !synced then
            QCheck.Test.fail_reportf "lost fsync'd records (%d < %d)" k !synced
          else
            List.for_all2
              (fun (tn, e) (tn', e') -> tn = tn' && event_equal e e')
              (firstn k all) got)

let test_fleet_driver_smoke () =
  let out = render (fun ppf -> Fleet.report ~scale:0.01 ~jobs:1 ppf) in
  check_bool "all tenants bit-identical" true
    (contains out "10/10 tenants bit-identical");
  check_bool "group-commit amortization reported" true
    (contains out "fsyncs per tenant-round")

let test_fleet_driver_jobs_independent () =
  let out jobs = render (fun ppf -> Fleet.report ~scale:0.01 ~jobs ppf) in
  check_bool "bytes identical across jobs" true (String.equal (out 1) (out 2))

let test_fleet_amortization_shape () =
  let entries = Fleet.journal_amortization ~seed:3 ~tenants:8 ~rounds:40 ~reps:1 () in
  check_bool "expected names" true
    (List.map fst entries
    = [ "journal/fleet_group"; "journal/fleet_fsyncs_per_kround" ]);
  let ns = List.assoc "journal/fleet_group" entries in
  check_bool "ns positive and finite" true (ns > 0. && Float.is_finite ns);
  let per_kround = List.assoc "journal/fleet_fsyncs_per_kround" entries in
  check_bool "group commit beats one fsync per round" true
    (per_kround > 0. && per_kround < 1000.)

(* ------------------------------------------------------------------ *)
(* Request batcher                                                     *)
(* ------------------------------------------------------------------ *)

module Batcher = Fleet_store.Batcher

let test_batcher_flush_rules () =
  (* Batch-full: exactly the [capacity]-th add flushes, in arrival
     order, with the latency trigger far away. *)
  let b = Batcher.create ~capacity:3 ~latency_rounds:100 in
  check_bool "first add pends" true (Batcher.add b 1 = None);
  check_bool "second add pends" true (Batcher.add b 2 = None);
  check_int "two pending" 2 (Batcher.pending b);
  (match Batcher.add b 3 with
  | Some batch -> check_bool "capacity flush in order" true (batch = [| 1; 2; 3 |])
  | None -> Alcotest.fail "capacity trigger did not fire");
  check_int "drained" 0 (Batcher.pending b);
  (* Bounded latency: a lone request flushes once it is exactly
     [latency_rounds] rounds old — its own add counts as a round, so
     with L = 4 the third tick fires, not the second. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:4 in
  check_bool "add pends" true (Batcher.add b 7 = None);
  check_bool "tick 2 pends" true (Batcher.tick b = None);
  check_bool "tick 3 pends" true (Batcher.tick b = None);
  (match Batcher.tick b with
  | Some batch -> check_bool "latency flush" true (batch = [| 7 |])
  | None -> Alcotest.fail "latency trigger did not fire");
  (* An empty batcher never flushes on ticks, however many pass. *)
  for _ = 1 to 10 do
    check_bool "idle tick" true (Batcher.tick b = None)
  done;
  (* Adds advance the same round clock as ticks: two adds then two
     ticks age the oldest request to L = 4. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:4 in
  check_bool "add a" true (Batcher.add b 10 = None);
  check_bool "add b" true (Batcher.add b 11 = None);
  check_bool "tick 3" true (Batcher.tick b = None);
  (match Batcher.tick b with
  | Some batch -> check_bool "mixed-clock flush" true (batch = [| 10; 11 |])
  | None -> Alcotest.fail "mixed add/tick latency trigger did not fire");
  (* flush drains whatever pends and reports an empty queue as None. *)
  let b = Batcher.create ~capacity:3 ~latency_rounds:100 in
  check_bool "nothing to flush" true (Batcher.flush b = None);
  ignore (Batcher.add b 1);
  check_bool "flush drains" true (Batcher.flush b = Some [| 1 |]);
  check_bool "flush idempotent" true (Batcher.flush b = None)

let test_batcher_degenerate_and_validation () =
  (* capacity = 1 is unbatched serving: every add flushes itself. *)
  let b = Batcher.create ~capacity:1 ~latency_rounds:100 in
  for i = 1 to 5 do
    check_bool "capacity-1 add flushes" true (Batcher.add b i = Some [| i |])
  done;
  (* latency_rounds = 1 degenerates the same way. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:1 in
  check_bool "latency-1 add flushes" true (Batcher.add b 9 = Some [| 9 |]);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Fleet.Batcher.create: capacity must be >= 1") (fun () ->
      ignore (Batcher.create ~capacity:0 ~latency_rounds:1));
  Alcotest.check_raises "zero latency"
    (Invalid_argument "Fleet.Batcher.create: latency_rounds must be >= 1")
    (fun () -> ignore (Batcher.create ~capacity:1 ~latency_rounds:0))

(* Any add/tick stream: batches concatenate to exactly the adds in
   arrival order, never exceed capacity, and no request waits more
   than latency_rounds rounds from its add to its flush. *)
let prop_batcher_stream =
  prop "batcher preserves order, capacity and latency bounds" 100
    QCheck.(
      triple (int_range 1 8) (int_range 1 10) (small_list (option unit)))
    (fun (capacity, latency_rounds, ops) ->
      let b = Batcher.create ~capacity ~latency_rounds in
      let next = ref 0 in
      let added = ref [] in
      let flushed = ref [] in
      let age = Hashtbl.create 16 in
      let round = ref 0 in
      let ok = ref true in
      let take = function
        | None -> ()
        | Some batch ->
            if Array.length batch > capacity then ok := false;
            Array.iter
              (fun r ->
                flushed := r :: !flushed;
                (match Hashtbl.find_opt age r with
                | Some born when !round - born > latency_rounds -> ok := false
                | Some _ -> ()
                | None -> ok := false);
                Hashtbl.remove age r)
              batch
      in
      List.iter
        (fun op ->
          incr round;
          match op with
          | Some () ->
              let r = !next in
              incr next;
              added := r :: !added;
              Hashtbl.replace age r (!round - 1);
              take (Batcher.add b r)
          | None -> take (Batcher.tick b))
        ops;
      take (Batcher.flush b);
      !ok && List.rev !flushed = List.rev !added && Batcher.pending b = 0)

(* ------------------------------------------------------------------ *)
(* Recover driver                                                      *)
(* ------------------------------------------------------------------ *)

let test_recover_driver_smoke () =
  let out = render (fun ppf -> Recover.report ~scale:0.01 ~seed:5 ~jobs:1 ppf) in
  check_bool "all variants bit-identical" true
    (contains out "4/4 variants bit-identical");
  check_bool "corruption probe rejected" true (contains out "rejected");
  check_bool "compaction verified" true (contains out "ok (-")

let test_recover_driver_jobs_independent () =
  let out jobs = render (fun ppf -> Recover.report ~scale:0.01 ~seed:5 ~jobs ppf) in
  check_bool "bytes identical across jobs" true (String.equal (out 1) (out 2))

let test_journal_overhead_shape () =
  let entries = Recover.journal_overhead ~seed:3 ~reps:1 ~rounds:300 () in
  check_int "three modes" 3 (List.length entries);
  check_bool "expected names" true
    (List.map fst entries
    = [ "journal/longrun_off"; "journal/longrun_nofsync"; "journal/longrun_fsync" ]);
  List.iter
    (fun (name, ns) ->
      check_bool (name ^ " positive and finite") true (ns > 0. && Float.is_finite ns))
    entries

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_store"
    [
      ( "frame",
        [
          prop_roundtrip;
          prop_truncation;
          prop_corruption;
          Alcotest.test_case "batch seal = per-record framing" `Quick
            test_seal_matches_append;
        ] );
      ( "journal",
        [
          prop_event_codec;
          prop_tagged_codec;
          Alcotest.test_case "tagged decoder reads v1 as tenant 0" `Quick
            test_tagged_decoder_reads_v1;
          Alcotest.test_case "unknown versions refused" `Quick
            test_unknown_version_refused;
          Alcotest.test_case "malformed sparse payloads refused" `Quick
            test_sparse_validation;
          Alcotest.test_case "segment names past 12 digits" `Quick
            test_segment_start_boundary;
          Alcotest.test_case "writer rotation round-trip" `Quick
            test_writer_rotation_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail_tolerated;
          Alcotest.test_case "pre-tail corruption refused" `Quick
            test_pretail_corruption_refused;
          Alcotest.test_case "forged dimension allocates little" `Quick
            test_forged_dimension_bounded;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "newest skips corrupt files" `Quick
            test_snapshots_newest_skips_corrupt;
          Alcotest.test_case "restore error names position" `Quick
            test_restore_error_names_position;
        ] );
      ( "store",
        [
          Alcotest.test_case "crash, recover, compact" `Quick
            test_store_crash_recover_compact;
          Alcotest.test_case "compact with corrupt newest snapshot" `Quick
            test_store_compact_corrupt_newest_snapshot;
          Alcotest.test_case "sharded journal bit-identity" `Quick
            test_sharded_journal_identity;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "interleaved round-trip with rotation" `Quick
            test_fleet_interleaved_roundtrip;
          Alcotest.test_case "latency-bound group commit" `Quick
            test_fleet_latency_bound;
          prop_fleet_crash_prefix;
          Alcotest.test_case "driver smoke (tiny)" `Slow test_fleet_driver_smoke;
          Alcotest.test_case "driver jobs-independent bytes" `Slow
            test_fleet_driver_jobs_independent;
          Alcotest.test_case "amortization shape" `Slow
            test_fleet_amortization_shape;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "flush rules" `Quick test_batcher_flush_rules;
          Alcotest.test_case "degenerate capacities and validation" `Quick
            test_batcher_degenerate_and_validation;
          prop_batcher_stream;
        ] );
      ( "recover driver",
        [
          Alcotest.test_case "smoke (tiny)" `Slow test_recover_driver_smoke;
          Alcotest.test_case "jobs-independent bytes" `Slow
            test_recover_driver_jobs_independent;
          Alcotest.test_case "journal overhead shape" `Slow
            test_journal_overhead_shape;
        ] );
    ]
