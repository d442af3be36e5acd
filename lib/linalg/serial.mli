(** Little-endian binary serialization helpers.

    Shared by the ellipsoid and mechanism snapshots in
    [Dm_market] and the journal codec in [Dm_store]: writers append to
    a [Buffer.t], the reader is a mutable cursor over an immutable
    string.  Floats travel as their IEEE-754 bit patterns
    ([Int64.bits_of_float]), so every value — including NaN payloads
    and signed zeros — round-trips exactly. *)

val add_u8 : Buffer.t -> int -> unit
(** Append one byte.  Raises [Invalid_argument] outside [0, 255]. *)

val add_u32 : Buffer.t -> int -> unit
(** Append a 32-bit little-endian unsigned integer.  Raises
    [Invalid_argument] outside [0, 2³²). *)

val add_u64 : Buffer.t -> int -> unit
(** Append a 64-bit little-endian integer.  Raises [Invalid_argument]
    on negative input (the on-disk formats only store counts). *)

val add_f64 : Buffer.t -> float -> unit
(** Append the 8-byte IEEE-754 bit pattern of a float. *)

type reader = private { src : string; mutable pos : int }
(** A cursor into [src]; every [take_*] advances [pos]. *)

exception Short of int
(** Raised by the [take_*] readers when fewer bytes remain than the
    value needs; the payload is the cursor position where data ran
    out.  Callers that parse untrusted bytes catch it and map to a
    [result] carrying the offset. *)

val reader : ?pos:int -> string -> reader
(** Cursor over [src] starting at [pos] (default 0). *)

val remaining : reader -> int
(** Bytes left between the cursor and the end of [src]. *)

val take_u8 : reader -> int

val take_u32 : reader -> int

val take_u64 : reader -> int
(** Raises [Short] (positioned at the field start) when the stored
    value does not fit a non-negative OCaml [int] — the formats never
    write such values, so an oversized count is corruption. *)

val take_f64 : reader -> float

val take_f64s : reader -> int -> float array
(** The next [n] floats.  Checks [remaining] before allocating, so a
    forged count fails with [Short] instead of a huge allocation.
    Raises [Invalid_argument] on negative [n]. *)

val take_bytes : reader -> int -> string
(** The next [len] raw bytes.  Raises [Invalid_argument] on negative
    [len]. *)

val expect : reader -> string -> bool
(** Consume [String.length magic] bytes and report whether they equal
    [magic]; returns [false] (without raising) when too few remain. *)

val max_dim : int
(** Ceiling (2²⁰) on any dimension a decoder reads from untrusted
    bytes — ellipsoid, projection and journal feature dimensions alike.
    Every real state sits far below it, and it keeps [8·dim·(dim+1)]
    byte counts and per-dimension allocations bounded. *)
