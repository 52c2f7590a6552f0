(** Fleet-level core ownership: one shared big/little pool multiplexing
    every tenant's ready checkers (DESIGN.md §16).

    Placement is per-core work-stealing. Each little core owns a deque
    of ready [(tenant, checker)] pairs; a tenant's checkers are pushed
    at its {e home} core (round-robin at admission). A free core pops
    its own deque LIFO (newest checker, warmest cache) and steals FIFO
    from the others (oldest checker — longest wait, bounding detection
    latency). Big cores mirror the single-tenant drain rule: they
    FIFO-steal queued checkers of tenants whose main has exited, and
    when littles are saturated the pool-wide oldest running little-core
    checker migrates to a free big. Each tenant's main core is reserved
    for its whole lifetime and joins the shared big pool at retirement.

    Isolation: flushing, resetting (rollback) or retiring a tenant
    touches exactly its own queue entries, cores and flags — never
    another tenant's (the fault blast-radius invariant, checked by
    {!check_invariants}). *)

type t

val create : Sim_os.Engine.t -> Config.t -> t
(** [cfg] is the fleet-level template: its [obs] sink receives the
    pool's events, and its policy knobs ([migration], [dvfs_pacing])
    steer the pool.
    @raise Invalid_argument if the platform has no little cores. *)

val register_tenant : t -> tid:int -> stats:Stats.t -> main_core:int -> unit
(** Admit a tenant: assign its home little core (round-robin) and
    reserve [main_core] (excluded from checker dispatch while the
    tenant lives). Called once per tenant. *)

val reset_tenant : t -> tid:int -> unit
(** Rollback: flush the tenant's stale entries and clear its
    main-exited and main-held flags, so it is scheduled like a freshly
    admitted tenant. Its home core and reserved main core stay. *)

val enqueue : t -> tid:int -> Sim_os.Engine.pid -> unit
(** Push a ready (stopped, fully armed) checker onto its tenant's home
    deque and dispatch greedily. *)

val finished : t -> Sim_os.Engine.pid -> unit
(** The checker completed (or was killed): frees its core (accounting
    CPU time into its tenant's stats) or removes it from its deque if
    it never ran; unknown pids are a no-op. *)

val main_exited : t -> tid:int -> unit
(** The tenant enters its drain phase: its running little-core checkers
    migrate to free big cores and its queued checkers become eligible
    for direct big-core steals. *)

val set_main_held : t -> tid:int -> bool -> unit

val main_flags : t -> tid:int -> bool * bool
(** The pool's view of the tenant's main: [(exited, held)]. *)

val flush_tenant : t -> tid:int -> unit
(** Drop every scheduling trace of the tenant (dead-process teardown
    after a rollback or abort); its cores immediately redispatch to
    other tenants' work. *)

val retire_tenant : t -> tid:int -> unit
(** Flush the tenant and release its reserved main core into the shared
    big pool. Idempotent. *)

val queued_pids : t -> tid:int -> Sim_os.Engine.pid list
val running_pids : t -> tid:int -> Sim_os.Engine.pid list

val steals : t -> int
(** Dispatches that ran a checker off its tenant's home core (FIFO
    steals by other littles plus big-core drain steals), pool-wide. *)

val migrations : t -> int

val pacer_tick : t -> unit
(** The one fleet-wide pacer: accounts running checkers into their
    tenants' stats, emits the [fleet.backlog] counter, attributes
    little-core idle time, and paces the shared little cluster's DVFS
    by the pooled backlog (thresholds scale with the live tenant
    count; any held main or an all-mains-exited drain forces full
    speed). *)

val check_invariants : t -> unit
(** Fleet-scope sweep: every core owned by at most one tenant's
    checker, running/free/reserved partitions disjoint, no entry owned
    by an unknown or retired tenant, no pid both queued and running.
    @raise Segment.Invariant_violation on the first failure. *)
