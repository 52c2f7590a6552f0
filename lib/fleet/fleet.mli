(** Multi-tenant fleet mode (DESIGN.md §16): N concurrent guest
    programs on one simulated machine, each protected by its own
    {!Coordinator} pipeline, all ready checkers scheduled over one
    shared big/little pool ({!Core_pool}) with per-core work-stealing
    deques (owner pops LIFO, thieves steal FIFO).

    Determinism: each tenant's runtime rng and OS-entropy stream derive
    from the root seed and its tenant id alone ({!Util.Rng.stream}), so
    a tenant's architectural outcome (final state hash, exit status) is
    reproducible regardless of admission interleaving.

    Isolation: rollback, watchdog kill and hard-fault abort in one
    tenant never touch another tenant's segments or cores. *)

type admission =
  | Queue_arrivals
      (** arrivals beyond [max_tenants] wait for a free slot *)
  | Reject_arrivals  (** arrivals beyond [max_tenants] are turned away *)

type arrival =
  | Batch  (** all tenants arrive at t = 0 (closed loop) *)
  | Staggered of int
      (** open loop: tenant [i] arrives at [i * gap_ns] *)

type outcome =
  | Completed
  | Aborted  (** detection/hard fault cut the tenant's run short *)
  | Rejected
  | Unfinished  (** still waiting or running at the simulation bound *)

type tenant_report = {
  tid : int;
  stats : Parallaft.Stats.t option;
      (** [None] when the tenant never admitted *)
  outcome : outcome;
  exit_status : int option;
  final_state_hash : int64 option;
  admitted_ns : int option;
  completed_ns : int option;
}

type report = {
  tenants : tenant_report list;  (** in tenant-id order *)
  admitted : int;
  rejected : int;
  steals : int;  (** pool-wide off-home dispatches *)
  migrations : int;
  segments_verified : int;  (** summed [segments_compared] *)
  wall_ns : int;
  energy_j : float;
  throughput_segments_per_s : float;
  live_at_end : int;
      (** simulated processes still live when the fleet returned — 0
          unless a tenant was cut off at the simulation bound (the pid
          teardown clause of [Experiments.Oracle]) *)
}

val tenant_rngs : seed:int64 -> tid:int -> Util.Rng.t * Util.Rng.t
(** [(runtime rng, main-process OS-entropy rng)] for a tenant, keyed by
    [(seed, tid)] only. Exposed for the determinism tests. *)

val run :
  ?seed:int64 ->
  ?max_tenants:int ->
  ?admission:admission ->
  ?arrival:arrival ->
  ?configure:(int -> Parallaft.Config.t -> Parallaft.Config.t) ->
  platform:Platform.t ->
  config:Parallaft.Config.t ->
  programs:Isa.Program.t list ->
  unit ->
  report
(** Run one fleet: tenant [i] protects [List.nth programs i] under
    [config], its main on a big core reserved round-robin; [config]'s
    [obs] sink is attached to the fleet's engine, and its policy knobs
    also steer the shared pool. [max_tenants] caps the live tenants
    (default: the number of programs, so no cap). [configure] maps each
    tenant's config — the hook the isolation tests use to arm a fault
    plan in exactly one tenant. Every tenant
    builds its own checker backend from its config, so any backend
    works. Returns when every tenant settled (completed, aborted or
    rejected) or at the hang bound, {!Parallaft.Config.max_sim_ns}.
    @raise Invalid_argument before anything runs if
    {!Parallaft.Config.validate} refuses [config] or any tenant's final
    config as a [Tenant] (a record log, or a RAFT config). *)

val to_assoc : report -> (string * string) list
(** The fleet's stats dump, in [Stats.to_assoc]'s key/value form:
    [fleet.*] totals and [hwmon.energy_joules], then per tenant its
    outcome, exit status, [Stats] rows (segments compared, recoveries,
    detections) and admission-to-completion wall time. *)
