(** Runtime configuration.

    [parallaft ~platform ()] reproduces the paper's default setup
    (§4-5): slicing every "5 billion" cycles (at the documented 1e-4
    simulation scale), checkers on little cores with migration and DVFS
    pacing, XXH64 state comparison, dirty tracking chosen per platform.

    [raft ~platform ()] models RAFT exactly as §5.1 does: no periodic
    slicing (one segment for the whole run), the checker on a big core,
    no state comparison and no dirty-page tracking — syscall comparison
    remains the only detection mechanism. *)

type mode =
  | Parallaft
  | Raft

type dirty_backend =
  | Soft_dirty  (** per-PTE dirty bits, cleared at segment start (x86_64) *)
  | Map_count  (** PAGEMAP_SCAN-style unique-mapping query (AArch64) *)
  | Full_compare  (** ablation: compare every mapped page *)

type chaos = {
  chaos_seed : int64;  (** seed for the backend's private fault RNG *)
  crash_pct : int;  (** per-dispatch chance the node dies mid-check *)
  stall_pct : int;  (** per-dispatch chance the node wedges mid-check *)
  late_pct : int;  (** per-dispatch chance the verdict returns late *)
  prelaunch_pct : int;
      (** per-dispatch chance the node dies between dispatch and the
          check actually launching (the pre-first-heartbeat window) *)
  reboot_ns : int;  (** crashed/stalled nodes recover after this long *)
  late_ns : int;  (** base delay for late verdicts *)
}

type backend =
  | Backend_inline
      (** launch each checker the instant its segment finishes recording
          — the original (and byte-identical) PR-4 pipeline *)
  | Backend_deferred of { batch : int; max_lag : int }
      (** queue finished segments and launch [batch] checks per wakeup,
          amortizing fork + cache-warmup cost; [max_lag] bounds how many
          unverified segments may be outstanding (backpressures the
          recorder through the boundary-hold mechanism) *)
  | Backend_remote of { nodes : int; retries : int; chaos : chaos option }
      (** dispatch each check to a pool of [nodes] simulated checker
          nodes, watched through each checking segment's lease clock
          with heartbeat expiry; a dead/stalled/late node's segment is
          re-dispatched (up to [retries] times) to a healthy node, and
          its state machine retires the check exactly once (a lapsed
          incarnation's late verdict is discarded). [chaos] injects
          node faults for the campaign in [exp_backends]. *)

type t = {
  mode : mode;
  slice_period : int;
      (** in the platform's slice unit (cycles on Apple, instructions on
          Intel); ignored in RAFT mode *)
  max_live_segments : int;
      (** main stalls at a boundary while this many segments are
          outstanding — the detection-latency / memory bound of §3.4 *)
  migration : bool;  (** migrate the oldest checker to a big core when
                         little cores run out (§4.5) *)
  dvfs_pacing : bool;  (** scale the little cluster's DVFS point *)
  dirty_backend : dirty_backend;
  fault_plan : Fault.plan option;
      (** inject one fault into this run, at any of the {!Fault.target}
          classes (§5.6 generalized; DESIGN.md §13) *)
  recovery : bool;
      (** EXTENSION (the paper's Table 2 "future work" row): on a
          detection, roll the main process back to the last verified
          checkpoint and re-execute, instead of terminating. Caveat
          (shared with the paper's §3.4 discussion): externally visible
          syscalls issued since that checkpoint are re-executed, so
          recovery assumes buffered/reversible IO. *)
  recheck_on_mismatch : bool;
      (** EXTENSION (DESIGN.md §13): treat a checker-side failure
          (mismatch, crash, timeout, watchdog kill) as possibly the
          {e checker's} fault: re-dispatch the check once, on a fresh
          checker forked from the segment's start snapshot. If the
          re-check passes the failure is classified
          {!Detection.Transient_checker_fault} and the run continues
          without rollback; if it fails too, the failure stands and the
          normal recover-or-abort response runs. Costs one extra fork
          per launched segment (the pristine spare the re-check needs). *)
  watchdog_stall_ns : int;
      (** checker watchdog (DESIGN.md §13): a checking checker that
          makes no instruction progress for this much simulated time —
          while holding a core, not queued, and not waiting on a
          streaming log — is declared stalled, killed, and re-dispatched
          (or failed, once out of retries/spares). Catches the stalls
          and kills the instruction-budget timeout cannot (that budget
          only fires if the checker is {e executing}). [<= 0] disables. *)
  check_invariants : bool;
      (** debug: after every handled tracer event, validate segment
          state-machine legality and cross-structure consistency (roles,
          live set, scheduler and engine must agree on live pids), and
          retain per-segment transition histories for inspection
          ({!Coordinator.segment_histories}). Defaults to the
          [PARALLAFT_INVARIANTS] environment variable ([1]/non-empty,
          with [0] meaning off); a violation raises
          {!Segment.Invariant_violation}. *)
  block_cache : int;
      (** decoded-block cache capacity (in blocks) for every CPU the run
          spawns ([<= 0] disables). Purely an interpreter speedup: the
          simulated behaviour, all goldens and every counter are
          byte-identical with the cache on or off. Defaults to
          {!Machine.Cpu.default_block_cache}. *)
  cpu_stats : bool;
      (** append [cpu.block_cache_*] interpreter-internal rows to the
          stats dump. Off by default so the default stats surface (and
          every golden) is unchanged. *)
  record_log : string option;
      (** persist a {!Seglog} of the run into this directory (one file
          per recorded segment plus a manifest at the end, laid out by
          {!Seglog_io}), for offline re-checking with [parallaft_replay].
          [None] (the default) writes nothing and the run is
          byte-identical to before the option existed. {!validate}
          refuses it outside a [Solo] Parallaft run (the log's verdict
          is the state comparison, and it holds one linear history).
          See DESIGN.md §17. *)
  backend : backend;
      (** where and when checks run (DESIGN.md §18). [Backend_inline]
          (the default) is byte-identical to the pre-backend pipeline.
          {!validate} refuses a non-inline backend outside Parallaft
          mode, and a deferred [batch] or [max_lag], or a remote
          [nodes], below 1. *)
  obs : Obs.Sink.t option;
      (** observability sink (event trace, metric histograms, phase
          profiler). {!Coordinator.create} and [Fleet.run] attach it to
          the run's engine, the one route every emit site takes
          ({!Sim_os.Engine.emit}); [None] (the default) makes each of
          them a no-op, so tracing is zero-cost unless requested. See
          DESIGN.md "Observability" for the event taxonomy. *)
}

(** What a run is: a bare {!Runtime.run_baseline}, one
    {!Runtime.run_protected}, or one tenant of a [Fleet.run]. *)
type run_kind = Baseline | Solo | Tenant

val validate : run_kind -> t -> (unit, string) result
(** The support matrix, and the one place it is written (DESIGN.md
    §18). [Error] names the first rule the config breaks: a baseline
    run takes no checker settings; RAFT takes no record log, no
    non-inline backend and no main-side fault; a tenant is Parallaft
    with no record log; a deferred [batch] and [max_lag] and a remote
    [nodes] are at least 1; the fault plan passes {!Fault.validate}.
    The CLI calls it once per run; {!Runtime.run_protected} and
    [Fleet.run] call it before they touch anything and raise
    [Invalid_argument] with the reason. *)

val timeout_scale : float
(** A checker is killed past [timeout_scale * main_insns]. *)

val page_hash_cache_pages : int
(** Capacity (in pages) of the comparator's modelled per-frame digest
    memo ({!Mem.Page_digest_cache}): the residency of a memoizing
    runtime, which decides the simulated hash cost. *)

val pacer_tick_ns : int
(** Period of the pacer, backend and watchdog ticks. *)

val max_sim_ns : int
(** The hang bound: 2 simulated seconds, where every engine run stops
    ([Runtime], [Fleet], [Offline] and the calibration runs). *)

val max_recoveries : int
(** Abort anyway after this many rollbacks (the backstop behind the
    Hard_fault classifier, which catches a persistent fault after a
    single wasted rollback). *)

val compare_states : t -> bool
(** Parallaft compares end-of-segment program states; RAFT compares
    syscalls only. *)

val checkers_on_little : t -> bool
(** Parallaft places checkers on little cores; RAFT runs its checker on
    a big core. *)

val parallaft : platform:Platform.t -> ?slice_period:int -> unit -> t
(** Default slice period: 250_000 cycles ("5 billion" at the documented
    5e-5 cycle scale), or the same count of instructions when the
    platform slices by instructions. *)

val raft : platform:Platform.t -> unit -> t

val default_chaos : chaos
val deferred_backend : ?batch:int -> ?max_lag:int -> unit -> backend
val remote_backend : ?nodes:int -> ?retries:int -> ?chaos:chaos -> unit -> backend

val backend_eager_spares : backend -> bool
(** Remote dispatches fork a pristine spare eagerly so a re-dispatch
    after node death never lacks a snapshot to launch from. *)

val redispatch_budget : t -> int
(** Re-dispatches a segment may burn before a checker-side failure
    becomes final ([max 1 retries] for the remote backend, 1
    otherwise). *)

val live_limit : t -> int
(** The recorder's boundary-hold limit: [max_live_segments], further
    clamped to the deferred backend's [max_lag] verification-lag
    budget. *)
