(** Checker execution scheduling and pacing (§4.5).

    Placement policy:
    - a ready checker takes a free little core (or a free big core in
      RAFT mode, see {!Config.checkers_on_little});
    - if little cores are exhausted and migration is enabled, the
      {e oldest} running checker is migrated to a free big core,
      freeing a little core for the newest checker (Figure 4);
    - when the main process exits, remaining checkers are migrated to
      big cores to finish quickly;
    - otherwise the checker queues.

    Pacing policy: a periodic tick adjusts the little cluster's DVFS
    level — up under backlog pressure (queued checkers or a stalled
    main), down when little cores sit idle — so the cluster provides
    "just enough" throughput.

    {b Fleet mode.} Created with [?fleet:(pool, tid)], the scheduler
    becomes a per-tenant facade over a shared {!Core_pool}: [enqueue],
    [finished], [on_main_exit], [set_main_held] and the pid queries
    delegate under the tenant id, [pacer_tick] is a no-op (the pool
    runs one fleet-wide pacer), creation registers the tenant, and
    {!reset} resets it in the pool. Without [?fleet] the behaviour is
    byte-identical to the single-tenant scheduler.

    One scheduler serves a run for its whole life: a rollback calls
    {!reset} instead of building a new one. *)

type t

val create :
  ?fleet:Core_pool.t * int -> Sim_os.Engine.t -> Config.t -> Stats.t -> t

val reset : t -> unit
(** Rollback: forget every checker (their processes are dead) and the
    main's exited/held state. Standalone, every field returns to its
    value at creation, without accounting the killed checkers' CPU
    time; in fleet mode {!Core_pool.reset_tenant} flushes the tenant
    and clears its flags. *)

val enqueue : t -> Sim_os.Engine.pid -> unit
(** Hand over a ready (stopped, fully armed) checker; it is resumed as
    soon as it gets a core. *)

val finished : t -> Sim_os.Engine.pid -> unit
(** The checker completed (or was killed): frees its core, accounts its
    CPU time to the big/little buckets, schedules the next queued
    checker. A pid that never ran is removed from the queue (re-emitting
    the [sched.queue_depth] gauge); a pid the scheduler never saw is a
    no-op. *)

val on_main_exit : t -> unit

val set_main_held : t -> bool -> unit
(** Tell the pacer the main process is stalled on [max_live_segments] —
    the strongest signal to raise the little-cluster frequency. *)

val pacer_tick : t -> unit

val flush : t -> unit
(** Fleet mode: drop every pool entry of this scheduler's tenant
    (queued entries leave the deques, running entries free their
    cores) — the teardown half of an abort, after the tenant's
    processes were killed. No-op standalone. *)

val main_flags : t -> bool * bool
(** The scheduler's view of the main: [(exited, held)] — the pool's
    tenant record in fleet mode (debug/invariants). *)

val check_invariants : t -> unit
(** Fleet mode: the pool's cross-tenant sweep
    ({!Core_pool.check_invariants}). No-op standalone. *)

val queued_pids : t -> Sim_os.Engine.pid list
(** Checkers waiting for a core, oldest first (debug/invariants). *)

val running_pids : t -> Sim_os.Engine.pid list
(** Checkers currently holding a core, oldest first (debug/invariants). *)
