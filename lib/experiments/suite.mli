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

type metric = Perf | Energy | Memory  (** wall time, energy, mean PSS *)
type system = Parallaft | Raft

val norm : metric -> system -> row -> float
(** [norm metric system row] is [system]'s [metric] on [row]'s
    benchmark over its baseline's (measured/baseline). *)

val geomean : metric -> system -> row list -> float
(** The geometric mean of {!norm} over [rows]. *)

val reported : metric -> float -> float
(** A normalized value in the unit the paper reports [metric] in, the
    unit of {!Paper}: percentage overhead for [Perf] and [Energy], the
    ratio itself for [Memory]. *)

val short_name : Workloads.Spec.t -> string
(** "429.mcf" -> "mcf". *)
