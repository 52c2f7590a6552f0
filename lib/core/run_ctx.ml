(* Shared run-level state threaded through the pipeline stages
   (Recovery -> Recorder -> Replayer -> Watchdog): the launch policy of
   the run's checker backend, and the helpers every stage needs:
   detection recording, simulated-cost charging, process bookkeeping,
   the re-dispatch budget, the spare fork and the check-span close, and
   the cross-structure debug invariant sweep. The run's check ledger is
   its segments themselves (DESIGN.md §18). *)

module E = Sim_os.Engine

type role =
  | Main_role
  | Checker_role of Segment.t

type t = {
  eng : E.t;
  cfg : Config.t;
  stats : Stats.t;
  (* The checker pool the run is a tenant of, under this tenant id: a
     private pool of its own, or a fleet's shared one; and the big core
     the pool reserves for the main process. *)
  pool : Core_pool.t;
  tid : int;
  main_core : int;
  backend : backend;
  (* The open --record-log output, opened by Runtime before the run;
     None leaves the recorder's persistence hooks no-ops (the
     byte-identical default path). *)
  seglog : Seglog_io.out option;
  rng : Util.Rng.t;
  mutable main : E.pid;
  roles : (E.pid, role) Hashtbl.t;
  mutable cur : Segment.t option;  (* the segment being recorded *)
  mutable live : Segment.t list;  (* recorded segments with running checkers *)
  mutable next_id : int;
  mutable seg_start_branches : int;
  mutable seg_start_insns : int;
  mutable main_exited : bool;
  mutable pending_boundary : bool;
  mutable aborted : bool;
  (* Recovery extension: the last checkpoint known good (every segment up
     to and including it verified), plus verified-but-not-yet-contiguous
     snapshots awaiting prefix promotion. *)
  mutable recovery_point : (int * E.pid) option;
  verified_snapshots : (int, E.pid) Hashtbl.t;
  mutable verified_prefix : int;  (* all segment ids <= this verified *)
  (* Hard-fault classification (DESIGN.md §13): a detection arriving
     after a rollback, before the verified prefix advances past the
     rollback anchor, means re-execution did not clear the fault. *)
  mutable rollback_anchor : int option;
  mutable verified_since_rollback : bool;
  mutable all_segments : Segment.t list;
      (* newest first; retained only under cfg.check_invariants, for
         {!Coordinator.segment_histories} *)
}

(* A checker backend (DESIGN.md §18) is a launch policy: when and where
   the check of a recorded segment starts. Checker_backend.create builds
   one per run from the config alone, and the run holds it unchanged;
   the stages reach it through these hooks without depending on the
   backend module. *)
and backend = {
  launch : t -> Segment.t -> unit;
      (* a segment finished recording: launch its check now or later *)
  launched : t -> Segment.t -> unit;
      (* a check has just started on the segment's current checker *)
  route_verdict : t -> Segment.t -> Detection.outcome option -> bool;
      (* true means the backend parked or discarded the verdict (late or
         stale under chaos) and the replayer must not act on it yet *)
  flush : t -> unit;  (* rollback/abort: drop queued and parked work *)
  poll : t -> unit;
}

let create ?rng ?seglog ~pool ~tid ~main_core ~stats ~backend eng cfg =
  {
    eng;
    cfg;
    stats;
    pool;
    tid;
    main_core;
    backend;
    seglog;
    rng =
      (match rng with
      | Some r -> r
      | None -> Util.Rng.create ~seed:0x5EEDL);
    main = -1;
    roles = Hashtbl.create 16;
    cur = None;
    live = [];
    next_id = 0;
    seg_start_branches = 0;
    seg_start_insns = 0;
    main_exited = false;
    pending_boundary = false;
    aborted = false;
    recovery_point = None;
    verified_snapshots = Hashtbl.create 8;
    verified_prefix = -1;
    rollback_anchor = None;
    verified_since_rollback = false;
    all_segments = [];
  }

let plat t = E.platform t.eng

(* ------------------------------------------------------------------ *)
(* Stages emit through the engine (E.emit, E.observe and the E.phase
   functions): the run holds no sink of its own. *)

(* Record a detection against a segment: the stats row and the trace
   instant. Shared by the replayer (comparison mismatches), the
   watchdog (dead/stalled checkers) and the recorder (injected main
   faults surfacing as exceptions). *)
let record_detection t seg outcome =
  Stats.record_detection t.stats ~segment:(Segment.id seg) outcome;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("outcome", Obs.Trace.Str (Detection.outcome_to_string outcome));
      ]
    "detection"

let main_track t = Obs.Trace.Core t.main_core

(* ------------------------------------------------------------------ *)
(* Simulated-cost charging                                              *)

let big_eff_hz t =
  let big = Platform.big_cluster (plat t) in
  Platform.effective_hz big ~level:big.Platform.default_level

let cycles_to_ns t cycles = float_of_int cycles *. 1e9 /. big_eff_hz t

(* A cost the engine models as a delay of [pid], attributed to the
   profile phase [name] as a zero-width charge. Main charges debit the
   main core's timeline, checker charges the checker's pid track. *)
let charge t ?segment pid name ~ns =
  if ns > 0.0 then begin
    E.delay t.eng pid ~ns;
    let tracks =
      if pid = t.main then [ main_track t ] else [ Obs.Trace.Proc pid ]
    in
    E.phase_add t.eng ~tracks ?segment name (int_of_float ns)
  end

(* ------------------------------------------------------------------ *)
(* Process helpers                                                      *)

let main_cpu t = E.cpu t.eng t.main

let page_table_of t pid = Mem.Address_space.page_table (E.aspace t.eng pid)

let exec_point_now t =
  {
    Exec_point.branches = Machine.Cpu.branches (main_cpu t) - t.seg_start_branches;
    pc = Machine.Cpu.get_pc (main_cpu t);
  }

let kill_if_alive t pid =
  match E.state t.eng pid with
  | E.Exited _ -> ()
  | E.Runnable | E.Stopped -> E.kill t.eng pid

let live_count t = List.length t.live
let live_limit t = Config.live_limit t.cfg

(* May the segment's check still be re-dispatched onto a fresh checker? *)
let retries_left t seg =
  Segment.redispatches seg < Config.redispatch_budget t.cfg

(* Fork a spare off the segment's checker before that checker runs: a
   pristine copy of the segment-start state for a re-dispatch to launch
   from. Counted as a checkpoint. *)
let fork_spare t seg =
  Segment.set_spare seg (Some (E.fork_process t.eng (Segment.checker seg)));
  t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1

(* Close the checker's "check" span with [outcome] and sample the
   check's latency since launch. Every check closes here once: on its
   verdict, when it is re-dispatched, or when teardown discards it. *)
let close_check t seg ~outcome =
  E.emit t.eng ~track:(Obs.Trace.Proc (Segment.checker seg))
    ~phase:Obs.Trace.End
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("outcome", Obs.Trace.Str outcome);
      ]
    "check";
  match Segment.launched_at seg with
  | Some ns ->
    E.observe t.eng "checker.latency_ns" (float_of_int (E.time_ns t.eng - ns))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fault-plan plumbing                                                  *)

(* Record that a main-targeted fault has fired. Called at every point
   where the main process (or its armed cpu) may be replaced or
   destroyed — segment boundaries, exit, rollback, abort — so the
   campaign's "landed" accounting survives the pid changing hands. *)
let latch_main_fault t =
  match t.cfg.Config.fault_plan with
  | Some plan when Fault.targets_main plan ->
    if Machine.Cpu.fault_injected (E.cpu t.eng t.main) then
      t.stats.Stats.fi_fired <- true
  | Some _ | None -> ()

(* Free the recovery-point snapshot and any verified-but-unpromoted
   snapshots: on clean completion there is nothing left to recover, and
   on abort the run is over — either way, leaving them alive leaks
   engine processes (and keeps the simulation spinning until its hang
   bound, since the engine only stops when no live process remains). *)
let release_recovery_state t =
  (match t.recovery_point with
  | Some (_, snap) -> kill_if_alive t snap
  | None -> ());
  t.recovery_point <- None;
  Hashtbl.iter (fun _ snap -> kill_if_alive t snap) t.verified_snapshots;
  Hashtbl.reset t.verified_snapshots

(* ------------------------------------------------------------------ *)
(* Debug invariants (cfg.check_invariants): after every handled tracer
   event, the segment state machines and the run-level structures
   (cur/live, roles table, pool, engine) must agree. *)

let violation fmt =
  Printf.ksprintf (fun s -> raise (Segment.Invariant_violation s)) fmt

let check_invariants t =
  if t.cfg.Config.check_invariants && not t.aborted then begin
    let tracked = (match t.cur with Some s -> [ s ] | None -> []) @ t.live in
    (match t.cur with
    | Some s when Segment.phase s <> Segment.Recording_p ->
      violation "current segment %d is %s, not recording" (Segment.id s)
        (Segment.phase_to_string (Segment.phase s))
    | Some _ | None -> ());
    (* Non-inline backends hold recorded segments in Awaiting_launch
       (queued in a batch, or in a remote dispatch window) — only the
       inline backend promises an immediate launch. *)
    let launch_deferred = t.cfg.Config.backend <> Config.Backend_inline in
    List.iter
      (fun s ->
        match Segment.phase s with
        | Segment.Checking_p -> ()
        | Segment.Awaiting_launch_p when launch_deferred -> ()
        | ph ->
          violation "live segment %d is %s, not checking" (Segment.id s)
            (Segment.phase_to_string ph))
      t.live;
    List.iter Segment.check_invariants tracked;
    List.iter
      (fun s ->
        if Segment.torn_down s then
          violation "segment %d is torn down but still tracked" (Segment.id s);
        (match Hashtbl.find_opt t.roles (Segment.checker s) with
        | Some (Checker_role s') when s' == s -> ()
        | Some (Checker_role s') ->
          violation "checker %d maps to segment %d, expected %d"
            (Segment.checker s) (Segment.id s') (Segment.id s)
        | Some Main_role | None ->
          violation "roles table lost checker %d of segment %d"
            (Segment.checker s) (Segment.id s));
        (match E.state t.eng (Segment.checker s) with
        | E.Exited _ ->
          violation "checker %d of tracked segment %d has exited"
            (Segment.checker s) (Segment.id s)
        | E.Runnable | E.Stopped -> ());
        match Segment.spare s with
        | None -> ()
        | Some sp ->
          (match E.state t.eng sp with
          | E.Exited _ ->
            violation "spare %d of segment %d has exited" sp (Segment.id s)
          | E.Runnable | E.Stopped -> ());
          (match Hashtbl.find_opt t.roles sp with
          | Some _ ->
            violation "spare %d of segment %d holds a role" sp (Segment.id s)
          | None -> ()))
      tracked;
    (match Hashtbl.find_opt t.roles t.main with
    | Some Main_role -> ()
    | Some (Checker_role _) | None ->
      violation "roles table lost the main process (pid %d)" t.main);
    let tracked_checkers = List.map Segment.checker tracked in
    List.iter
      (fun pid ->
        if not (List.mem pid tracked_checkers) then
          violation "pool holds pid %d belonging to no tracked segment" pid)
      (Core_pool.queued_pids t.pool ~tid:t.tid
      @ Core_pool.running_pids t.pool ~tid:t.tid);
    (* Pool scope: the cross-tenant partitions must hold after every one
       of any tenant's events. *)
    Core_pool.check_invariants t.pool;
    (* Ledger scope: every verified check and every check in flight
       holds a dispatch of its own. *)
    let b = t.stats.Stats.backend in
    let checking =
      List.length
        (List.filter (fun s -> Segment.phase s = Segment.Checking_p) tracked)
    in
    if b.Stats.b_dispatched < b.Stats.b_verified + checking then
      violation "%d checks dispatched, but %d verified and %d checking"
        b.Stats.b_dispatched b.Stats.b_verified checking
  end
