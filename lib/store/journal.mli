(** Append-only segmented journal of {!Dm_market.Broker.event}
    records.

    On disk a journal is a directory of segment files named
    [seg-%012d.dmj] — the number is the round of the segment's first
    event — each opening with an 8-byte magic and continuing as
    {!Frame}-framed event records.  Records never split across
    segments; the writer rotates to a fresh segment once the current
    one exceeds its byte budget.

    Durability contract: appends are buffered; {!sync} (also run on
    rotation and {!close}) flushes and fsyncs, after which every
    record appended so far survives a crash.  A crash may tear or
    lose any suffix written after the last sync — {!read_dir}
    tolerates exactly that (a torn tail in the {e final} segment) and
    refuses anything CRC-corrupt earlier, per {!Frame.decode}. *)

val magic : string
(** The 8-byte segment-file magic (["dm-jrn1\n"]). *)

val segment_name : int -> string
(** [seg-%012d.dmj] for a first-event round (wider than 12 digits when
    the round needs them). *)

val segment_start : string -> int option
(** Inverse of {!segment_name}; [None] for non-segment file names.
    Accepts any digit-run width — names above the [%012d] pad (first
    round ≥ 10¹²) must parse too, or recovery would silently skip the
    segment — and rejects runs that overflow [int]. *)

val encode_event : Dm_market.Broker.event -> string
(** Binary payload for one event.  The feature vector is stored
    through the {!Dm_linalg.Vec.Sparse} view when its density passes
    [Vec.Sparse.of_dense]'s threshold, dense otherwise; floats travel
    as IEEE-754 bit patterns, so decoding reproduces every field
    exactly (sparse storage normalizes [-0.] feature entries to
    [+0.], which every kernel treats identically — see DESIGN.md). *)

val decode_event : string -> (Dm_market.Broker.event, string) result
(** Inverse of {!encode_event}; [Error] messages carry the byte
    offset of the first problem.  A structurally valid but
    inconsistent sparse vector — duplicate, decreasing or
    out-of-range indices, or a count above the dimension — is
    refused the same way: a CRC collision must not alias
    coordinates silently.  A dimension above
    {!Dm_linalg.Serial.max_dim}, or one the remaining bytes cannot
    hold, is refused before anything is allocated.  Only version-1
    (untagged) payloads decode here; tagged ones need
    {!decode_event_tagged}. *)

val encode_event_tagged :
  tenant:int -> Dm_market.Broker.event -> string
(** Version-2 payload: like {!encode_event} with a 4-byte tenant id
    (in [0, 2³²), else [Invalid_argument]) between the version byte
    and the event body — the record format of the shared
    {!Fleet} journal. *)

val decode_event_tagged :
  string -> (int * Dm_market.Broker.event, string) result
(** Decode either version: a version-2 payload yields its tenant id,
    a version-1 payload decodes as tenant [0] (so solo logs read back
    through the fleet path), and any other version byte is refused
    with the offset-bearing [Error] of {!decode_event}. *)

val frame_bound : Dm_market.Broker.event -> int
(** Upper bound on the framed ([length | crc | payload]) size of one
    event in either codec version — the scratch-buffer headroom
    {!encode_frame} requires. *)

val encode_frame : ?tenant:int -> Bytes.t -> at:int -> Dm_market.Broker.event -> int
(** [encode_frame ?tenant scratch ~at e] writes one {e unsealed}
    frame ([length | blank crc | payload]) into [scratch] at offset
    [at] and returns its size; the caller must guarantee
    [Bytes.length scratch - at >= frame_bound e] and later
    {!Frame.seal} the batch.  With [?tenant] the payload is the
    version-2 tagged form.  This is the batched-writer hot path
    shared by the solo writer and the group-commit {!Fleet}. *)

type writer

val create_writer :
  ?segment_bytes:int ->
  ?fsync_every_record:bool ->
  dir:string ->
  start:int ->
  unit ->
  writer
(** Open a writer whose first event will be round [start] (an
    existing segment of that name is truncated — its contents can
    only be a torn leftover of the same resumption point).
    [segment_bytes] (default 64 MiB, minimum 4 KiB) bounds a segment's
    size: a segment at or over budget rotates before the next append.
    [fsync_every_record] (default false) upgrades every append to a
    full flush+fsync — the slow, zero-loss mode the bench stage
    quantifies. *)

val append : writer -> Dm_market.Broker.event -> unit
(** Append one event.  Events must arrive in strictly consecutive
    round order starting at [start]; anything else raises
    [Invalid_argument] — a journal with round gaps is unreplayable. *)

val sync : writer -> unit
(** Flush buffered records and fsync the active segment. *)

val durable_offset : writer -> int
(** Bytes of the active segment guaranteed on disk (covered by the
    last fsync).  The fault-injection hook must not damage bytes
    below this watermark — a real crash cannot un-fsync them. *)

val active_segment : writer -> string
(** Path of the segment currently being written. *)

val next_round : writer -> int
(** The round the next appended event must carry. *)

val close : writer -> unit
(** Sync and close; idempotent. *)

val abandon : writer -> unit
(** Close the file descriptor {e without} the final fsync, leaving
    {!durable_offset} at its pre-abandon value — the first half of a
    simulated crash ({!Store.simulate_crash}).  Idempotent. *)

type tail =
  | Clean
  | Torn of { segment : string; offset : int }
      (** the final segment lost a suffix from [offset] on *)

val read_dir : dir:string -> (Dm_market.Broker.event list * tail, string) result
(** Read every event in round order.  Only the final segment (by
    name) may be torn; a torn or CRC-corrupt earlier segment, a bad
    magic on a non-empty file, a round gap between or within
    segments, or a segment whose first event disagrees with its file
    name all yield [Error] with a [Journal.read_dir: reason]
    message.  A final segment shorter than its 8-byte magic counts as
    torn (a crash can race segment creation).  An empty or absent
    directory reads as [([], Clean)]. *)

val segments : dir:string -> (int * string) list
(** The segment files of [dir] as [(first round, absolute path)],
    sorted by round.  Non-segment files are ignored. *)
