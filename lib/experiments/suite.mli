(** The shared benchmark sweep: every SPEC-like benchmark under baseline,
    Parallaft and RAFT. Figures 5-8 and Table 1 all read from one sweep,
    which is memoized per (platform, scale, quick) so "run everything"
    pays for it once. *)

type row = {
  bench : Workloads.Spec.t;
  baseline : Measure.metrics;
  parallaft : Measure.metrics;
  raft : Measure.metrics;
}

val benchmarks : quick:bool -> Workloads.Spec.t list
(** The full suite, or a 6-benchmark subset under [quick]. *)

val get : platform:Platform.t -> scale:float -> quick:bool -> row list
(** Runs (or returns the memoized) sweep. Prints one progress line per
    benchmark to stderr. The memo table is mutex-protected, so [get] is
    safe to call from parallel tasks. *)

val sweep : platform:Platform.t -> scale:float -> quick:bool -> row list
(** The un-memoized sweep behind {!get}, fanned out over [Util.Pool]
    (one task per benchmark). Exposed so the differential determinism
    suite can run it repeatedly at different pool widths; harness code
    should use {!get}. *)

val geomean_overhead_pct : (row -> float) -> row list -> float
(** Geometric-mean of per-benchmark normalized values, expressed as a
    percentage overhead. The projection maps a row to its normalized
    (measured/baseline) value. *)

val perf_norm_parallaft : row -> float
val perf_norm_raft : row -> float
val energy_norm_parallaft : row -> float
val energy_norm_raft : row -> float
val memory_norm_parallaft : row -> float
val memory_norm_raft : row -> float

val short_name : Workloads.Spec.t -> string
(** "429.mcf" -> "mcf". *)
