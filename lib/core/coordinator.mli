(** The Parallaft coordinator (Figure 2): run-level wiring of the
    segment pipeline.

    One coordinator protects one program run. The pipeline stages live
    in their own modules — {!Recorder} slices the main process into
    segments and records its interactions, {!Replayer} replays and
    checks recorded segments, {!Recovery} rolls back or aborts — all
    over the shared {!Run_ctx} state, with per-segment data typed by
    {!Segment}'s state machine. This module creates the run with its
    wiring fixed — the checker backend's launch policy
    ({!Checker_backend.create}), the record log and the checker pool
    are immutable parts of the run, and every stage
    calls the next one directly — routes tracer events by
    process role, and registers the periodic polls (pacer, backend,
    watchdog, runtime faults).

    The coordinator runs entirely inside tracer callbacks and pacer
    ticks; after {!create}, stepping the engine to completion
    ({!Sim_os.Engine.run}) performs the whole protected run. *)

type t

val create :
  ?rng:Util.Rng.t ->
  ?prng:Util.Rng.t ->
  ?fleet:Core_pool.t * int * int ->
  ?seglog:Seglog_io.out ->
  Sim_os.Engine.t ->
  Config.t ->
  program:Isa.Program.t ->
  t
(** Spawns the traced main process (pinned to its main core), forks
    the first checker, arms the slicer, and registers the periodic
    polls.

    Without [?fleet], the run is the only tenant of a private
    {!Core_pool}, its main runs on core 0, and it registers that pool's
    pacer tick; the engine must be freshly usable and multiple
    coordinators on one engine are unsupported. With [?fleet:(pool,
    tid, main_core)] the run becomes tenant [tid] of the fleet's shared
    pool, whose pacer the fleet drives (N coordinators then share one
    engine, each main on its reserved [main_core]). [rng] seeds the
    runtime's emulation stream (rdrand results, recheck jitter) and
    [prng] the main process's private OS entropy (ASLR, getrandom) —
    the fleet derives both per tenant from the root seed so each
    tenant's run is reproducible regardless of admission interleaving.
    [seglog] is an open [--record-log] output: the recorder persists
    every finished segment into it ([Runtime] owns creation and the
    final manifest); without it the persistence hooks are no-ops. *)

val drained : t -> bool
(** The run reached its fixed point: aborted, or main exited with no
    segment recording and no checker live. Fleet completion detection —
    recovery snapshots may still be alive; release them with
    {!release_recovery_state} once drained. *)

val release_recovery_state : t -> unit
(** Kill any retained recovery-point / verified snapshots (fleet
    teardown; the single-tenant path does this inside the pipeline). *)

val finish : t -> unit
(** The end-of-run step of both entry points ([Runtime] once the engine
    stops, [Fleet] when it records the tenant complete): retire the
    drain scope main exit opened, and classify a fired fault that
    nothing classified yet ([fi_outcome]: the first detection, a
    fail-stop exception if the run aborted without one, else
    [Benign]). *)

val stats : t -> Stats.t
val main_pid : t -> Sim_os.Engine.pid

val aborted : t -> bool
(** True if the run was cut short (detection, or an unprotected failure
    such as the main process dying to an unhandled signal). *)

val live_pids : t -> Sim_os.Engine.pid list
(** The main process plus all live checkers — the process set whose PSS
    the paper's memory measurement sums (checkpoint processes excluded:
    their private pages are swappable, §5.4). *)

val segment_histories : t -> (int * Segment.phase list) list
(** Per-segment phase histories (oldest segment first), retained only
    when {!Config.t.check_invariants} is on — empty otherwise. Used by
    the property tests to assert every segment walked a legal
    [Recording -> Awaiting_launch -> Checking -> Done] path. *)
