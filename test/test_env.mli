(** Shared per-process setup for the test executables. *)

val qcheck_count : int -> int
(** [qcheck_count base] is the per-property case count: [base]
    multiplied by the [QCHECK_COUNT] environment variable when it
    parses as an integer ≥ 1 (a stress knob for soak runs — e.g.
    [QCHECK_COUNT=50 dune runtest]), and [base] unchanged when the
    variable is unset, unparsable or < 1. *)

val install_pool_from_env : unit -> unit
(** Reads [BENCH_JOBS]; at values above 1 installs a
    {!Dm_linalg.Pool} of that many domains as the process-wide default
    (shut down at exit) so the suites exercise the same pooled code
    paths as the bench harness.  Unset, unparsable or ≤ 1 values leave
    the default pool uninstalled. *)

val allocated_words : (unit -> 'a) -> 'a * float
(** [allocated_words f] runs [f] after a minor collection and returns
    its result with the heap words allocated meanwhile (minor plus
    directly-major allocations, from [Gc.counters]) — the measure
    behind the decoders' bounded-allocation tests. *)
