(** Helpers shared by the benchmark's workloads: a monotonic clock, a
    log-bucketed latency histogram with the percentile rule, the
    median-of-passes aggregation, the metric-name grammar, the unit
    table, and the result line. *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds ([CLOCK_MONOTONIC]); allocates
    nothing, so timing a loop does not move its minor-word count. *)

val seconds_since : int -> float
(** [seconds_since t0] is the time elapsed since [now_ns] read [t0]. *)

(** Latency histogram in the style of HdrHistogram: values below 256
    are exact and every power of two above splits into 128 linear
    sub-buckets, so a recorded value reads back within 0.4% of itself.
    Recording allocates nothing. *)
module Hist : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit
  (** Record one sample in nanoseconds (negative values count as 0). *)

  val count : t -> int

  val merge : into:t -> t -> unit
  (** Add every sample of the second histogram to [into]. *)

  val quantile : t -> p:float -> group:int -> (float, string) result
  (** [quantile h ~p ~group] is the [p]-quantile (0 < p < 1) of the
      recorded samples in nanoseconds: the smallest bucket value with
      at least [ceil (p · count)] samples at or below it.  Samples
      arrive in runs of [group] that share one cause (a batch of
      decisions that share one commit), so only [count / group] of
      them are independent.  The percentile rule: [Error] unless at
      least 10 independent samples lie beyond [p], that is unless
      [(count / group) · (1 − p) ≥ 10]. *)
end

(** Per-index minima over repeated identical passes.  Every pass of a
    run does the same work in the same order, so index [i] (a decision,
    or a timed segment of a pass) costs the same in every pass, and the
    host's slow spells only ever add to it.  The minimum over passes is
    the index's cost with the host quiet; summed over a pass's segments
    it gives the quiet pass time.

    Passes are dealt round-robin into [groups] groups.  {!overall} takes
    each index's minimum over every pass; {!grouped} keeps one minimum
    per group and pools them, which gives [groups] times as many
    samples for a tail percentile, each a minimum over fewer passes. *)
module Mins : sig
  type t

  val create : groups:int -> int -> t
  (** [create ~groups n] tracks indices [0 .. n − 1]. *)

  val add : t -> pass:int -> int -> int -> unit
  (** [add t ~pass i v] records [v] nanoseconds at index [i] for pass
      number [pass]; allocates nothing. *)

  val sum : t -> int
  (** Σ over every index of its minimum over every pass; raises
      [Invalid_argument] when some index has no sample. *)

  val overall : t -> Hist.t
  (** Each index's minimum over every pass, one sample per index. *)

  val grouped : t -> Hist.t
  (** Each index's minimum within each group, [groups] samples per
      index (fewer while a group has no pass). *)
end

val quantile : float array -> p:float -> float
(** [quantile a ~p] interpolates linearly between the order statistics
    of [a] at rank [p·(n − 1)] (Python's [statistics.quantiles] with
    [method='inclusive']).  This is how a run aggregates its passes.
    Raises [Invalid_argument] on an empty array, a NaN or [p] outside
    [0, 1]. *)

val median : float array -> float
(** [quantile a ~p:0.5]. *)

val valid_name : string -> bool
(** The metric-name grammar: 1 to 64 characters from
    [A-Za-z0-9_.-], starting with a letter or a digit. *)

val valid_unit : string -> bool
(** The unit grammar: 1 to 16 characters from [A-Za-z0-9_/%.-]. *)

type kind = End_to_end | Per_layer

val metrics : (string * string * kind) list
(** The unit table: every metric the benchmark prints, with its unit
    and whether a plain run ([--trace 0]) or a traced run
    ([--trace 1]) prints it.  [BENCHMARK.json] lists the same names
    and units. *)

val unit_of : string -> string
(** The unit of a metric in {!metrics}; raises [Not_found] for any
    other name. *)

val result_line :
  kind:kind ->
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float) list ->
  (string, string) result
(** The JSON object the benchmark prints as its last line.  [Error]
    unless the names are exactly the {!metrics} of [kind], every value
    is finite and [0 ≤ failed ≤ attempted], [attempted ≥ 1]. *)
