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
  bytes_hashed : int;  (** page bytes the comparator hashed *)
  outputs_ok : bool;  (** every input exited 0 *)
}

val run_benchmark :
  ?seed:int64 ->
  platform:Platform.t ->
  mode:mode ->
  scale:float ->
  Workloads.Spec.t ->
  metrics
(** Run every input of the benchmark under [mode], summing metrics. A
    protected run writes to its config's [obs] sink, if any. *)

val run_program :
  ?seed:int64 ->
  ?on_start:(Sim_os.Engine.t -> Sim_os.Engine.pid -> unit) ->
  platform:Platform.t ->
  mode:mode ->
  Isa.Program.t ->
  metrics
(** Single-program variant (microbenchmarks, sweeps). [on_start] runs
    before the simulation with the engine and the main process: the hook
    for an external-signal driver. *)

val overhead_pct : baseline:metrics -> measured:metrics -> float
(** Percentage wall-time overhead; protected wall includes checker
    drain. *)

(** The performance-overhead breakdown of §5.2.1 (Figs. 6 and 9), each
    component a percentage of the baseline wall time. *)
type breakdown = {
  fork_cow : float;  (** Δ main system time: forking and COW faults *)
  contention : float;
      (** Δ main user time: resource contention; negative where the
          protected main ran its user code faster than the baseline *)
  sync : float;  (** last-checker sync: protected wall − main wall *)
  runtime_work : float;  (** [total] − the three above *)
  total : float;  (** {!overhead_pct} *)
}

val breakdown : baseline:metrics -> measured:metrics -> breakdown
(** Nothing is clamped, so the four components sum to [total]. *)
