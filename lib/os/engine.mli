(** The simulated operating system and discrete-time execution engine.

    The engine owns the cores of a {!Platform.t}, a process table, the
    kernel (syscalls, fork, signals, mmap/ASLR), the cache/DRAM timing
    model, DVFS, and the energy meter. Time advances in fixed quanta
    (20 µs); within a quantum each core executes its current
    process until the budget runs out or the process traps.

    {b Tracing.} A process spawned with a [tracer] is the ptrace analogue:
    every trap (syscall entry, nondeterministic instruction, breakpoint,
    counter overflow, signal delivery, fault, halt) stops the process and
    synchronously invokes the tracer callback, which inspects and mutates
    the process through this API and decides whether to {!resume} it.
    Every traced stop costs [tracer_stop_ns] of wall-clock latency,
    accounted as runtime work — this is what makes a getpid loop two
    orders of magnitude slower under tracing (§5.7). Untraced processes
    get default kernel behaviour (syscalls executed, faults fatal).

    {b Determinism.} All model randomness (ASLR, skid, urandom, …) comes
    from the seed; equal seeds and equal tracer behaviour give bit-equal
    simulations. *)

type t

type pid = int

type pstate =
  | Runnable
  | Stopped  (** held by the tracer; skipped by the scheduler *)
  | Exited of int

type event =
  | Syscall_entry of Syscall.call
      (** stopped {e on} the syscall instruction, before any effect *)
  | Nondet of Isa.Insn.t  (** trapped nondeterministic instruction *)
  | Breakpoint
  | Branch_overflow
  | Cycle_overflow
  | Insn_overflow
  | Signal of Sig_num.t  (** a signal is about to be delivered *)
  | Fault of Machine.Cpu.fault
  | Halted  (** executed [halt] without an exit syscall *)

type tracer = t -> pid -> event -> unit

val create :
  ?block_cache:int ->
  platform:Platform.t ->
  seed:int64 ->
  unit ->
  t
(** [block_cache] is the decoded-block cache capacity (in blocks) given
    to every CPU this engine spawns ([<= 0] disables; default
    {!Machine.Cpu.default_block_cache}) — an interpreter speedup with no
    simulated-behaviour effect. *)

val platform : t -> Platform.t
val fs : t -> File.fs
val now_ns : t -> int

val time_ns : t -> int
(** Fine-grained simulated time: the timestamp of the event currently
    being dispatched (within the running quantum), falling back to
    {!now_ns} between quanta. Observability emit sites use this so that
    traces resolve ordering inside a quantum. Purely simulated — never
    wall clock — so it is reproducible from the seed. *)

val set_obs : t -> Obs.Sink.t -> unit
(** Attach an observability sink: the engine then emits [fork] and
    [exit] instants (per-process tracks), [dvfs.cluster*] counter events
    on level changes, and [fork.cost_ns]/[fork.pages] metrics. Without a
    sink every emit site is a no-op. *)

(** {2 The route to the sink}

    Every layer above the engine (pipeline stages, checker pool, fleet)
    reaches the attached sink through these, stamped with {!time_ns}.
    Each is a no-op until {!set_obs}; the [phase_*] functions are also
    no-ops while the sink's profiler is off. *)

val emit :
  t ->
  track:Obs.Trace.track ->
  phase:Obs.Trace.phase ->
  ?args:(string * Obs.Trace.arg) list ->
  string ->
  unit

val observe : t -> string -> float -> unit
(** Add one observation to the named histogram. *)

val phase_enter : t -> track:Obs.Trace.track -> ?segment:int -> string -> unit
val phase_leave : t -> track:Obs.Trace.track -> string -> unit

val phase_add :
  t -> tracks:Obs.Trace.track list -> ?segment:int -> string -> int -> unit
(** A zero-width charge of [ns] to the named phase ({!Obs.Profile.add_ns}). *)

val phase_close_all : t -> unit
(** Close every open phase scope (teardown and run end). *)

val frame_allocator : t -> Mem.Frame.allocator

(** {2 Topology and DVFS} *)

val n_cores : t -> int

val big_cores : t -> int list
val little_cores : t -> int list

val set_dvfs_level : t -> cluster:int -> level:int -> unit
(** Clamp-free: @raise Invalid_argument on an out-of-range level. *)

val dvfs_level : t -> cluster:int -> int

(** {2 Processes} *)

val spawn :
  t ->
  ?tracer:tracer ->
  ?prng:Util.Rng.t ->
  program:Isa.Program.t ->
  core:int ->
  unit ->
  pid
(** Load a program: map its data segments, set the break, open
    stdout/stderr, randomize the mmap base, and enqueue the process
    runnable on [core]. Traced processes trap nondeterministic
    instructions; untraced ones execute them natively.

    [prng], when given, becomes the process's private entropy stream:
    ASLR (spawn base and per-mmap gaps), getrandom bytes and the CPU's
    skid rng draw from it instead of the engine-global stream, so the
    process's address-space layout depends only on its own stream — the
    fleet derives one per tenant from the root seed, making each
    tenant's run reproducible regardless of how other tenants' draws
    interleave. Forked children inherit a {e copy} (a rollback snapshot
    promoted to main re-draws exactly what the original drew). Without
    [prng] the engine-global draw order is preserved bit for bit. *)

val fork_process : t -> pid -> pid
(** COW-fork a traced, currently stopped process (the runtime's
    checkpoint/checker creation). The child starts [Stopped] on the
    parent's core with the parent's tracer; fork cost (base + per mapped
    page) is charged to the parent as system time and stop latency. *)

val state : t -> pid -> pstate
val exit_status : t -> pid -> int option
(** [Some s] once the process exited with status [s]. *)

val cpu : t -> pid -> Machine.Cpu.t
val aspace : t -> pid -> Mem.Address_space.t

val resume : t -> pid -> unit
(** [Stopped] -> [Runnable]. No-op on a runnable process.
    @raise Invalid_argument on an exited process. *)

val suspend : t -> pid -> unit
(** [Runnable] -> [Stopped] (the tracer takes control outside an event,
    e.g. right after spawning the tracee). No-op on a stopped process.
    @raise Invalid_argument on an exited process. *)

val force_exit : t -> pid -> status:int -> unit
(** Retire a process with the given status without running an exit
    syscall (used when a tracee stops on [halt]). *)

val kill : t -> pid -> unit
(** Terminate immediately (SIGKILL): frees the address space, records an
    exit status of [137]. No-op if already exited. *)

val set_core : t -> pid -> core:int -> unit
(** Migrate (repin) a process. Takes effect at the next scheduling
    point. *)

val core_of : t -> pid -> int

val send_signal : t -> pid -> Sig_num.t -> unit
(** Queue an asynchronous (external) signal; the target will stop with a
    {!Signal} event (traced) or receive default delivery (untraced)
    before it next runs. *)

val deliver_signal_now : t -> pid -> Sig_num.t -> unit
(** Immediate delivery to a stopped process: jump to the registered
    handler (saving pc + registers for [sigreturn]) or apply the default
    action (termination). Used by the runtime to deliver external
    signals at a replayed execution point (§4.3.3). *)

val do_syscall : t -> pid -> unit
(** Kernel-execute the pending syscall of a stopped process: performs
    its effects, writes the result register, advances the pc, charges
    kernel time. The pass-through path for main-process syscalls. *)

val complete_syscall : t -> pid -> result:int -> unit
(** Tracer-emulated syscall: skip the kernel entirely, set the result
    register and advance past the syscall instruction. The replay path
    for checker syscalls (effects are injected separately through
    {!aspace}). *)

val delay : t -> pid -> ns:float -> unit
(** Extend the process's stop latency by [ns] (e.g. state-comparison
    hashing time); accounted as runtime work. *)

(** {2 Time-based callbacks} *)

val add_tick : t -> every_ns:int -> (t -> unit) -> unit
(** Invoke a callback at quantum granularity, approximately every
    [every_ns]; used by the pacer (§4.5) and the measurement samplers. *)

(** {2 Running} *)

val step_quantum : t -> unit

val run : ?max_ns:int -> t -> unit
(** Step until no live (non-exited) process remains or simulated time
    exceeds [max_ns] (default 10^12 ns). Stopped processes count as live:
    a tracer that never resumes its tracee will hit the bound. *)

val live_processes : t -> int

(** {2 Measurement} *)

type proc_stats = {
  state : pstate;
  user_ns : float;
  sys_ns : float;
  started_ns : int;
  ended_ns : int;  (** meaningful once exited; otherwise [now_ns] *)
}

val proc_stats : t -> pid -> proc_stats

val energy_j : t -> float
(** Total SoC + DRAM energy integrated so far. *)

val energy_breakdown_j : t -> (string * float) list
(** [("big", _); ("little", _); ("dram", _); ("static", _)]. *)

val runtime_work_ns : t -> float
(** Accumulated tracer-stop and tracer-charged latency — the runtime's
    own footprint. *)

val pss_bytes : t -> pid list -> int
(** Summed proportional set size of the given live processes. *)

val dram_accesses : t -> int

val block_cache_totals : t -> int * int * int
(** Summed [(hits, misses, invalidations)] of the decoded-block caches
    of every process ever spawned or forked (exited ones included);
    all zero when the cache is disabled. *)

val output : t -> string
(** Captured stdout of the whole simulation. *)
