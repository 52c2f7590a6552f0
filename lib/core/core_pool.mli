(** Checker core ownership (§4.5, DESIGN.md §16): the one scheduler.
    Every protected run is a tenant of a pool: a standalone run is the
    only tenant of a {!Private} pool, and a fleet's tenants share one
    {!Shared} pool.

    Checker cores follow the mode ({!Config.checkers_on_little}):
    Parallaft checkers run on the little cores with the unreserved big
    cores as overflow, RAFT checkers on the big cores other than the
    main's with no overflow.

    Placement is per-core deques. Each little core owns a deque of
    ready [(tenant, checker)] pairs; a tenant's checkers are pushed at
    its {e home} core (round-robin at admission). A free little core
    takes from its own deque first and otherwise steals FIFO from the
    others (oldest checker — longest wait, bounding detection latency).
    A free big core takes the oldest queued checker of a tenant whose
    main has exited (any tenant in RAFT), leaving the others in order;
    when the littles are saturated the oldest live little-core checker
    migrates to a free big. Each tenant's main core is reserved for its
    whole lifetime (a checker found on it at admission leaves it) and
    joins the big pool at retirement. One
    {!pacer_tick} paces the little cluster's DVFS by the pool's
    backlog.

    The two kinds differ in exactly three ways:
    - a shared pool's owner core pops its own deque LIFO (newest
      checker, warmest cache); a private pool's cores all take the
      run's oldest queued checker;
    - only a shared pool counts and traces off-home dispatches as
      steals;
    - tearing down a private pool's tenant ({!flush_tenant}) returns
      the pool to its creation state: free lists in creation order, the
      pacer's idle count at 0, the killed checkers' CPU time
      unaccounted. A shared pool accounts it and hands the freed cores
      straight to the other tenants.

    The pool keeps no copy of a run's state: whether a tenant's main
    has exited or is held at a boundary, it reads from the run itself
    through the functions given at {!register_tenant}, so a rollback
    that resets the run resets what the pool sees.

    Isolation: flushing (rollback or abort) or retiring a tenant
    touches exactly its own queue entries and cores — never another
    tenant's (the fault blast-radius invariant, checked by
    {!check_invariants}). *)

type kind =
  | Private  (** one standalone run; the run registers its pacer *)
  | Shared  (** a fleet's tenants; [Fleet.run] registers its pacer *)

type t

val create : kind -> Sim_os.Engine.t -> Config.t -> t
(** [cfg]'s mode places the checkers and its policy knobs ([migration],
    [dvfs_pacing]) steer the pool — the run's own config for a private
    pool, the fleet's template for a shared one. The pool's events go
    to the engine's sink ({!Sim_os.Engine.emit}).
    @raise Invalid_argument if the platform has no little cores. *)

val register_tenant :
  t ->
  tid:int ->
  stats:Stats.t ->
  main_core:int ->
  main_exited:(unit -> bool) ->
  main_held:(unit -> bool) ->
  unit
(** Admit a tenant: assign its home little core (round-robin) and
    reserve [main_core] (excluded from checker dispatch while the
    tenant lives). A checker already running on [main_core] moves to
    a free core (a migration), or, with none free, stops and goes back
    to the head of its tenant's home deque. [main_exited ()] and
    [main_held ()] read the run's own flags: its main has exited (its
    checkers may drain onto big cores), or is stalled on
    [max_live_segments] (the strongest signal to raise the
    little-cluster frequency). Called once per tenant; a private pool
    has one. *)

val enqueue : t -> tid:int -> Sim_os.Engine.pid -> unit
(** Push a ready (stopped, fully armed) checker onto its tenant's home
    deque (sampling the [fleet.queue_depth] gauge) and dispatch
    greedily; the checker resumes as soon as it gets a core. *)

val finished : t -> Sim_os.Engine.pid -> unit
(** The checker completed (or was killed): frees its core (accounting
    CPU time into its tenant's stats) and dispatches the next queued
    checker, or removes it from its deque if it never ran (re-sampling
    the gauge); unknown pids are a no-op. *)

val main_exited : t -> tid:int -> unit
(** The tenant's main has just exited (its [main_exited ()] already
    reads true) and it enters its drain phase: its running little-core
    checkers migrate to free big cores, and its queued checkers are
    eligible for them directly. *)

val flush_tenant : t -> tid:int -> unit
(** Drop every scheduling trace of the tenant (dead-process teardown
    after a rollback or abort). Its home core and reserved main core
    stay, so after a rollback it is scheduled like a freshly admitted
    tenant. *)

val retire_tenant : t -> tid:int -> unit
(** Flush the tenant and release its reserved main core into the big
    pool. Idempotent. *)

val queued_pids : t -> tid:int -> Sim_os.Engine.pid list
(** The tenant's checkers waiting for a core: the watchdog excuses
    them from stall detection. *)

val running_pids : t -> tid:int -> Sim_os.Engine.pid list
(** The tenant's checkers holding a core, oldest first. *)

val steals : t -> int
(** Dispatches that ran a checker off its tenant's home core (FIFO
    steals by other littles plus big-core drain takes), pool-wide;
    always 0 in a private pool. *)

val migrations : t -> int

val pacer_tick : t -> unit
(** The pool's pacer: accounts running checkers into their tenants'
    stats, emits the [backlog] counter, attributes little-core idle
    time, and paces the little cluster's DVFS by the pool's backlog
    (thresholds scale with the live tenant count; a held main steps it
    up two levels, all live mains exited forces full speed). *)

val check_invariants : t -> unit
(** Pool-scope sweep: every core owned by at most one tenant's
    checker, running/free/reserved partitions disjoint, no entry owned
    by an unknown or retired tenant, no pid both queued and running.
    @raise Segment.Invariant_violation on the first failure. *)
