(** Top-level entry points: run a program under Parallaft/RAFT, or bare
    for a baseline measurement. Each run gets a fresh engine, so runs
    are independent and reproducible from their seed. *)

type report = {
  stats : Stats.t;
  detections : (int * Detection.outcome) list;  (** oldest first *)
  aborted : bool;
  exit_status : int option;  (** main's status; [None] if it never exited *)
  output : string;  (** captured stdout *)
  wall_ns : int;
  energy_j : float;
  energy_breakdown : (string * float) list;
  runtime_work_ns : float;
  cow_copies : int;
  dram_accesses : int;
  live_at_end : int;
      (** simulated processes live when the engine stopped: 0 unless the
          run hit the hang bound ([Experiments.Oracle]'s pid clause) *)
}

type baseline = {
  wall_ns : int;
  user_ns : float;
  sys_ns : float;
  energy_j : float;
  output : string;
  exit_status : int option;
  live_at_end : int;  (** as in {!report} *)
}

val run_protected :
  ?seed:int64 ->
  ?rng:Util.Rng.t ->
  ?prng:Util.Rng.t ->
  ?before_run:(Sim_os.Engine.t -> Coordinator.t -> unit) ->
  platform:Platform.t ->
  config:Config.t ->
  program:Isa.Program.t ->
  unit ->
  report
(** [before_run] runs after the coordinator is set up but before the
    simulation — the hook for registering measurement ticks (PSS/power
    samplers) or external-signal drivers. [rng]/[prng] are forwarded to
    {!Coordinator.create}: passing a fleet tenant's streams
    ({!Fleet.tenant_rngs}) replays that tenant's run solo — the
    baseline the per-tenant determinism tests compare against.
    @raise Invalid_argument if {!Config.validate} refuses [config] as a
    [Solo] run, or {!Seglog_io.create} its record-log directory; nothing
    has run. *)

val run_baseline :
  ?seed:int64 ->
  ?block_cache:int ->
  ?before_run:(Sim_os.Engine.t -> Sim_os.Engine.pid -> unit) ->
  platform:Platform.t ->
  program:Isa.Program.t ->
  unit ->
  baseline
(** [block_cache] overrides the decoded-block cache capacity for the
    bare run ([<= 0] disables; default
    {!Machine.Cpu.default_block_cache}). *)
