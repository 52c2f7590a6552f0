(** Measurement harness shared by every experiment.

    A benchmark is a list of inputs (programs); each input runs on a
    fresh engine and the metrics are summed — matching how SPEC reports
    a benchmark with several reference inputs as one bar. Measurement
    procedures follow §5.1: energy is integrated over the run;
    memory is the PSS of main + checkers + runtime, sampled on a
    periodic tick (scaled from the paper's 0.5 s), with checkpoint
    processes excluded. *)

type mode =
  | Baseline
  | Protected of Parallaft.Config.t

type metrics = {
  wall_ns : float;  (** total: includes last-checker sync when protected *)
  main_wall_ns : float;  (** main-process wall time only *)
  main_user_ns : float;
  main_sys_ns : float;
  energy_j : float;
  mean_pss_bytes : float;  (** time-average over samples *)
  detections : int;
  segments : int;
  migrations : int;
  big_core_work_fraction : float;
  cow_copies : int;
  runtime_work_ns : float;
  outputs_ok : bool;  (** every input exited 0 *)
}

val run_benchmark :
  ?seed:int64 ->
  ?obs:Obs.Sink.t ->
  platform:Platform.t ->
  mode:mode ->
  scale:float ->
  Workloads.Spec.t ->
  metrics
(** Run every input of the benchmark under [mode], summing metrics.
    [obs] attaches an observability sink to the run (the engine for
    baseline runs, the runtime config for protected ones). A sink is
    not domain-safe: parallel callers ([Suite.sweep]) give each task a
    private sink and merge after the join. *)

val run_program :
  ?seed:int64 ->
  ?obs:Obs.Sink.t ->
  platform:Platform.t ->
  mode:mode ->
  Isa.Program.t ->
  metrics
(** Single-program variant (microbenchmarks, sweeps). *)

val overhead_pct : baseline:metrics -> measured:metrics -> float
(** Percentage wall-time overhead; protected wall includes checker
    drain. *)

val scale_from_env : unit -> float
(** [PARALLAFT_SCALE] (default 1.0): multiplies workload sizes. *)

val quick_from_env : unit -> bool
(** [PARALLAFT_QUICK=1] trims benchmark sets for fast smoke runs. *)
