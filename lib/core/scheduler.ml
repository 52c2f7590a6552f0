type entry = {
  pid : Sim_os.Engine.pid;
  mutable core : int;
  mutable last_cpu_ns : float;  (* user+sys at the last accounting point *)
}

type t = {
  eng : Sim_os.Engine.t;
  cfg : Config.t;
  stats : Stats.t;
  little : int list;
  big_pool : int list;  (* big cores available to checkers (not the main's) *)
  mutable free_little : int list;
  mutable free_big : int list;
  mutable running : entry list;  (* oldest first *)
  mutable queued : Sim_os.Engine.pid list;  (* oldest first *)
  mutable main_exited : bool;
  mutable main_held : bool;
  mutable idle_ticks : int;
  fleet : (Core_pool.t * int) option;
      (* fleet mode: every operation delegates to the shared pool under
         this tenant id; the per-run fields above stay empty *)
}

let create ?fleet eng cfg stats =
  let little = Sim_os.Engine.little_cores eng in
  let big_pool =
    List.filter (fun c -> c <> cfg.Config.main_core) (Sim_os.Engine.big_cores eng)
  in
  (match fleet with
  | None -> ()
  | Some (pool, tid) ->
    stats.Stats.fleet <- Some { Stats.home_dispatches = 0; stolen = 0 };
    Core_pool.register_tenant pool ~tid ~stats ~main_core:cfg.Config.main_core);
  {
    eng;
    cfg;
    stats;
    little;
    big_pool;
    free_little = little;
    free_big = big_pool;
    running = [];
    queued = [];
    main_exited = false;
    main_held = false;
    idle_ticks = 0;
    fleet;
  }

(* Rollback: every field back to its value at creation. *)
let reset t =
  t.free_little <- t.little;
  t.free_big <- t.big_pool;
  t.running <- [];
  t.queued <- [];
  t.main_exited <- false;
  t.main_held <- false;
  t.idle_ticks <- 0;
  match t.fleet with
  | Some (pool, tid) -> Core_pool.reset_tenant pool ~tid
  | None -> ()

let is_little t core = List.mem core t.little

let emit_ev t ~track ~phase ?args name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.emit s ~ts_ns:(Sim_os.Engine.time_ns t.eng) ~track ~phase ?args name

let observe t name v =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.observe s name v

(* Profiling glue (local copies of the Run_ctx helpers: the scheduler
   sits below Run_ctx in the module order). *)

let phase_enter t ~track name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.phase_enter s ~ts_ns:(Sim_os.Engine.time_ns t.eng) ~track name

let phase_leave t ~track name =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.phase_leave s ~ts_ns:(Sim_os.Engine.time_ns t.eng) ~track name

let phase_add t ~tracks name ns =
  match t.cfg.Config.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.phase_add s ~ts_ns:(Sim_os.Engine.time_ns t.eng) ~tracks name ns

let cpu_ns t pid =
  let st = Sim_os.Engine.proc_stats t.eng pid in
  st.Sim_os.Engine.user_ns +. st.Sim_os.Engine.sys_ns

(* Account the CPU time an entry consumed since the last accounting
   point to the bucket of the core class it was running on. *)
let account t e =
  let now = cpu_ns t e.pid in
  let delta = Float.max 0.0 (now -. e.last_cpu_ns) in
  e.last_cpu_ns <- now;
  if is_little t e.core then
    t.stats.Stats.checker_little_ns <- t.stats.Stats.checker_little_ns +. delta
  else t.stats.Stats.checker_big_ns <- t.stats.Stats.checker_big_ns +. delta

let take_core t =
  (* Preference order: little cores (Parallaft; RAFT's checker runs on
     a big core), then — once the main has exited — big cores to drain
     the backlog fast. *)
  if Config.checkers_on_little t.cfg then
    match t.free_little with
    | c :: rest ->
      t.free_little <- rest;
      Some c
    | [] ->
      if t.main_exited then
        match t.free_big with
        | c :: rest ->
          t.free_big <- rest;
          Some c
        | [] -> None
      else None
  else
    match t.free_big with
    | c :: rest ->
      t.free_big <- rest;
      Some c
    | [] -> None

let release_core t core =
  if is_little t core then t.free_little <- core :: t.free_little
  else if List.mem core t.big_pool then t.free_big <- core :: t.free_big
  else
    (* Cores only ever come from take_core/migration, so an unknown core
       here means the scheduler's bookkeeping is corrupt. *)
    invalid_arg (Printf.sprintf "Scheduler.release_core: core %d in neither pool" core)

let start_on t pid core =
  Sim_os.Engine.set_core t.eng pid ~core;
  t.running <- t.running @ [ { pid; core; last_cpu_ns = cpu_ns t pid } ];
  (* Dispatch ends the launch scope opened in [enqueue]: its self-time
     is the queue wait plus core-allocation work. *)
  phase_leave t ~track:(Obs.Trace.Proc pid) "checker_launch";
  Sim_os.Engine.resume t.eng pid

(* Migrate the oldest little-core checker to a free big core; returns the
   freed little core. *)
let migrate_oldest_to_big t =
  match t.free_big with
  | [] -> None
  | big :: rest_big -> (
    match
      List.find_opt
        (fun e ->
          is_little t e.core
          (* A checker can die on its core (runtime kill fault, chaos
             crash) and still sit in [running] until the watchdog's
             response retires it — and that response itself dispatches,
             so two deaths in one poll would otherwise migrate a
             corpse. The dead entry keeps its core until then; it is
             never a migration victim. *)
          &&
          match Sim_os.Engine.state t.eng e.pid with
          | Sim_os.Engine.Exited _ -> false
          | Sim_os.Engine.Runnable | Sim_os.Engine.Stopped -> true)
        t.running
    with
    | None -> None
    | Some e ->
      t.free_big <- rest_big;
      account t e;
      let freed = e.core in
      e.core <- big;
      Sim_os.Engine.set_core t.eng e.pid ~core:big;
      t.stats.Stats.migrations <- t.stats.Stats.migrations + 1;
      emit_ev t ~track:(Obs.Trace.Proc e.pid) ~phase:Obs.Trace.Instant
        ~args:[ ("from", Obs.Trace.Int freed); ("to", Obs.Trace.Int big) ]
        "migrate";
      (match t.cfg.Config.obs with
      | None -> ()
      | Some s -> Obs.Sink.incr s "sched.migrations");
      Some freed)

let rec try_dispatch t =
  match t.queued with
  | [] -> ()
  | pid :: rest -> (
    match take_core t with
    | Some core ->
      t.queued <- rest;
      start_on t pid core;
      try_dispatch t
    | None ->
      if
        t.cfg.Config.migration && Config.checkers_on_little t.cfg
        && not t.main_exited
      then
        match migrate_oldest_to_big t with
        | Some freed ->
          t.queued <- rest;
          start_on t pid freed;
          try_dispatch t
        | None -> ())

let enqueue t pid =
  match t.fleet with
  | Some (pool, tid) -> Core_pool.enqueue pool ~tid pid
  | None ->
    t.queued <- t.queued @ [ pid ];
    observe t "sched.queue_depth" (float_of_int (List.length t.queued));
    phase_enter t ~track:(Obs.Trace.Proc pid) "checker_launch";
    try_dispatch t

let finished_standalone t pid =
  match List.partition (fun e -> e.pid = pid) t.running with
  | [ e ], rest ->
    account t e;
    t.running <- rest;
    release_core t e.core;
    try_dispatch t
  | _, _ ->
    let depth = List.length t.queued in
    t.queued <- List.filter (fun q -> q <> pid) t.queued;
    (* A still-queued checker was torn down before it ever ran: the
       dequeue changes the backlog, so the gauge must track it just as
       enqueue does — and its launch scope closes here, never having
       been dispatched. *)
    if List.length t.queued <> depth then begin
      observe t "sched.queue_depth" (float_of_int (List.length t.queued));
      phase_leave t ~track:(Obs.Trace.Proc pid) "checker_launch"
    end

let finished t pid =
  match t.fleet with
  | Some (pool, _) -> Core_pool.finished pool pid
  | None -> finished_standalone t pid

let on_main_exit t =
  t.main_exited <- true;
  match t.fleet with
  | Some (pool, tid) -> Core_pool.main_exited pool ~tid
  | None ->
    (* Late checkers finish on big cores (§4.5). *)
    if t.cfg.Config.migration then begin
      let continue_migrating = ref true in
      while !continue_migrating do
        match migrate_oldest_to_big t with
        | Some freed ->
          release_core t freed;
          ()
        | None -> continue_migrating := false
      done
    end;
    try_dispatch t

let set_main_held t held =
  t.main_held <- held;
  match t.fleet with
  | Some (pool, tid) -> Core_pool.set_main_held pool ~tid held
  | None -> ()

let queued_pids t =
  match t.fleet with
  | Some (pool, tid) -> Core_pool.queued_pids pool ~tid
  | None -> t.queued

let running_pids t =
  match t.fleet with
  | Some (pool, tid) -> Core_pool.running_pids pool ~tid
  | None -> List.map (fun e -> e.pid) t.running

let flush t =
  match t.fleet with
  | Some (pool, tid) -> Core_pool.flush_tenant pool ~tid
  | None -> ()

let main_flags t =
  match t.fleet with
  | Some (pool, tid) -> Core_pool.main_flags pool ~tid
  | None -> (t.main_exited, t.main_held)

let check_invariants t =
  match t.fleet with
  | Some (pool, _) -> Core_pool.check_invariants pool
  | None -> ()

let pacer_tick_standalone t =
  List.iter (fun e -> account t e) t.running;
  emit_ev t ~track:Obs.Trace.Run ~phase:Obs.Trace.Counter
    ~args:
      [
        ("queued", Obs.Trace.Int (List.length t.queued));
        ("running", Obs.Trace.Int (List.length t.running));
      ]
    "backlog";
  (* Idle-capacity attribution, sampled at pacer resolution: each tick
     charges one period per little core with no checker on it. *)
  (let littles_running =
     List.length (List.filter (fun e -> is_little t e.core) t.running)
   in
   let idle_littles = List.length t.little - littles_running in
   if idle_littles > 0 then
     phase_add t ~tracks:[ Obs.Trace.Run ] "scheduler_idle"
       (idle_littles * Config.pacer_tick_ns));
  if t.cfg.Config.dvfs_pacing then begin
    let level = Sim_os.Engine.dvfs_level t.eng ~cluster:1 in
    let top =
      Array.length
        (Platform.little_cluster (Sim_os.Engine.platform t.eng)).Platform.freq_levels_mhz
      - 1
    in
    (* The control variable is the checker backlog: segments whose
       checkers have not completed. Holding it near 1-2 keeps detection
       latency and the end-of-run drain ("last-checker sync") small
       while letting the cluster idle down when checkers are fast. *)
    let outstanding = List.length t.queued + List.length t.running in
    let littles_running =
      List.length (List.filter (fun e -> is_little t e.core) t.running)
    in
    let idle_littles = List.length t.little - littles_running in
    if t.main_exited then begin
      t.idle_ticks <- 0;
      (* Drain the tail at full speed (checkers also migrate to big). *)
      Sim_os.Engine.set_dvfs_level t.eng ~cluster:1 ~level:top
    end
    else if t.main_held || outstanding > 3 then begin
      t.idle_ticks <- 0;
      let step = if t.main_held then 2 else 1 in
      Sim_os.Engine.set_dvfs_level t.eng ~cluster:1 ~level:(min top (level + step))
    end
    else if outstanding <= 2 && (idle_littles > 0 || outstanding <= 1) then begin
      (* Only step down after sustained slack, to avoid oscillation. *)
      t.idle_ticks <- t.idle_ticks + 1;
      if t.idle_ticks >= 2 && level > 0 then begin
        Sim_os.Engine.set_dvfs_level t.eng ~cluster:1 ~level:(level - 1);
        t.idle_ticks <- 0
      end
    end
    else t.idle_ticks <- 0
  end

let pacer_tick t =
  match t.fleet with
  | Some _ ->
    (* The pool runs one fleet-wide pacer; per-tenant ticks would fight
       over the shared little cluster's DVFS level. *)
    ()
  | None -> pacer_tick_standalone t
