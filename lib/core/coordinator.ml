(* Run-level wiring of the segment pipeline. The stages live in their
   own modules — Recorder (main-process events), Replayer (checker
   events), Recovery (rollback/abort), Watchdog — over the shared
   Run_ctx state; this module builds the run with its checker pool and
   backend fixed, routes tracer events by role, registers the periodic
   polls, and re-exports the public surface. *)

module E = Sim_os.Engine

type t = Run_ctx.t

let stats (t : t) = t.Run_ctx.stats
let main_pid (t : t) = t.Run_ctx.main
let aborted (t : t) = t.Run_ctx.aborted

let live_pids (t : t) =
  let checkers =
    List.filter_map
      (fun seg ->
        if Segment.is_done seg then None else Some (Segment.checker seg))
      (t.Run_ctx.live @ match t.Run_ctx.cur with Some s -> [ s ] | None -> [])
  in
  t.Run_ctx.main :: checkers

let segment_histories (t : t) =
  List.rev_map
    (fun seg -> (Segment.id seg, Segment.history seg))
    t.Run_ctx.all_segments

let handle_event (t : t) ~fault_poll pid ev =
  (match Hashtbl.find_opt t.Run_ctx.roles pid with
  | Some Run_ctx.Main_role -> Recorder.handle_main_event t ev
  | Some (Run_ctx.Checker_role seg) -> Replayer.handle_checker_event t seg ev
  | None -> ());
  (* An armed runtime fault strikes as soon as its conditions hold —
     event-driven as well as on the tick, since a short check can start
     and retire entirely between two ticks. The backend poll (due
     launches, chaos strikes, parked verdicts) runs before the watchdog
     so a chaos kill is observed — and repaired via the spare — in the
     same event; the watchdog then runs before the invariant sweep: a
     checker killed out-of-band must be re-dispatched or failed before
     the sweep would flag the dead pid as a structure violation. *)
  fault_poll ();
  t.Run_ctx.backend.Run_ctx.poll t;
  Watchdog.poll t;
  Run_ctx.check_invariants t

(* Fleet completion detection: the tenant's simulation reached a fixed
   point — aborted, or the main exited with no segment still recording
   and no checker still live. (Recovery snapshots may outlive this
   moment; Runtime/Fleet release them right after.) *)
let drained (t : t) =
  t.Run_ctx.aborted
  || (t.Run_ctx.main_exited && t.Run_ctx.cur = None && t.Run_ctx.live = [])

let release_recovery_state = Run_ctx.release_recovery_state

(* The end of a run, shared by Runtime and Fleet. Main exit opened a drain
   scope that only a teardown or this step retires. Checker-side fault
   plans are classified precisely by the replayer as their segment
   retires; main-side and runtime plans can surface anywhere (any
   segment's comparison, or only at the watchdog), so they are
   classified here: the first detection if one escaped, Benign if the
   fault fired and the run still verified clean. *)
let finish (t : t) =
  E.phase_leave t.Run_ctx.eng ~track:(Run_ctx.main_track t) "drain";
  let stats = t.Run_ctx.stats in
  if stats.Stats.fi_fired && stats.Stats.fi_outcome = None then
    stats.Stats.fi_outcome <-
      Some
        (match Stats.detections_oldest_first stats with
        | (_, o) :: _ -> o
        | [] ->
          (* An abort with no recorded detection (e.g. the injected
             fault signal-terminated the main) is still fail-stop, not
             a clean run. *)
          if t.Run_ctx.aborted then Detection.Exception_detected "run aborted"
          else Detection.Benign)

(* Runtime faults (kill/stall a checker mid-check) are armed at the
   engine level: the fault fires once a covered segment is checking and
   its checker has retired the plan's delay. Polled from the periodic
   tick AND after every routed event (handle_event) — a short check can
   start and retire entirely between two ticks. One strike per checker
   incarnation — a [repeat] plan also strikes re-dispatched checkers and
   later segments. [None] unless the plan is a runtime fault. *)
let runtime_fault_poll (t : t) =
  match t.Run_ctx.cfg.Config.fault_plan with
  | Some ({ Fault.target = Fault.Runtime_fault kind; _ } as plan) ->
    let eng = t.Run_ctx.eng in
    let struck : (E.pid, unit) Hashtbl.t = Hashtbl.create 4 in
    Some
      (fun () ->
        if not t.Run_ctx.aborted then
          List.iter
            (fun seg ->
              if
                (not (Segment.torn_down seg))
                && Segment.phase seg = Segment.Checking_p
                && Fault.arms plan ~segment:(Segment.id seg)
                     ~attempt:(Segment.redispatches seg)
              then begin
                let checker = Segment.checker seg in
                if
                  (not (Hashtbl.mem struck checker))
                  && (match E.state eng checker with
                     | E.Runnable -> true
                     | E.Stopped | E.Exited _ -> false)
                  && Machine.Cpu.instructions (E.cpu eng checker)
                     >= plan.Fault.delay_instructions
                then begin
                  Hashtbl.add struck checker ();
                  t.Run_ctx.stats.Stats.fi_fired <- true;
                  E.emit t.Run_ctx.eng ~track:Obs.Trace.Run
                    ~phase:Obs.Trace.Instant
                    ~args:
                      [
                        ("seg", Obs.Trace.Int (Segment.id seg));
                        ("checker", Obs.Trace.Int checker);
                        ( "kind",
                          Obs.Trace.Str
                            (match kind with
                            | Fault.Kill -> "kill"
                            | Fault.Stall -> "stall") );
                      ]
                    "fault.runtime";
                  match kind with
                  | Fault.Kill -> E.kill eng checker
                  | Fault.Stall -> E.suspend eng checker
                end
              end)
            t.Run_ctx.live)
  | Some _ | None -> None

let create ?rng ?prng ?fleet ?seglog eng cfg ~program =
  (* The run's sink rides on the engine, which every layer emits
     through; this is the one place a run reads [cfg.obs]. *)
  Option.iter (E.set_obs eng) cfg.Config.obs;
  (* The run's checker pool: a fleet tenant joins the fleet's shared
     pool, whose pacer Fleet.run drives; a standalone run is the only
     tenant of a private pool and drives its pacer below. *)
  let pool, tid =
    match fleet with
    | Some shared -> shared
    | None -> (Core_pool.create Core_pool.Private eng cfg, 0)
  in
  (* The pool reads the run's own stats and main flags: it keeps no
     copy. *)
  let stats = Stats.create () in
  let t =
    Run_ctx.create ?rng ?seglog ~pool ~tid ~stats
      ~backend:(Checker_backend.create cfg) eng cfg
  in
  Core_pool.register_tenant pool ~tid ~stats ~main_core:cfg.Config.main_core
    ~main_exited:(fun () -> t.Run_ctx.main_exited)
    ~main_held:(fun () -> t.Run_ctx.pending_boundary);
  let fault_poll = runtime_fault_poll t in
  let poll_faults = Option.value fault_poll ~default:ignore in
  let tracer _ pid ev = handle_event t ~fault_poll:poll_faults pid ev in
  let main = E.spawn eng ~tracer ?prng ~program ~core:cfg.Config.main_core () in
  t.Run_ctx.main <- main;
  Hashtbl.replace t.Run_ctx.roles main Run_ctx.Main_role;
  E.suspend eng main;
  if cfg.Config.recovery then begin
    (* The initial state is trivially verified: retain it so a failure in
       the very first segment can still recover. *)
    let snap = E.fork_process eng main in
    t.Run_ctx.recovery_point <- Some (-1, snap);
    t.Run_ctx.verified_prefix <- -1
  end;
  Recorder.start_segment t;
  E.resume eng main;
  let every_tick f = E.add_tick eng ~every_ns:Config.pacer_tick_ns (fun _ -> f ()) in
  if Option.is_none fleet then every_tick (fun () -> Core_pool.pacer_tick pool);
  (* The backend and the watchdog also need time-based polls: a queued
     deferred batch after main exit, a pending remote launch, or a dead/
     stalled checker generates no tracer events, so event-driven polling
     alone would leave the run hanging until the engine's global bound.
     The backend tick precedes the watchdog tick for the same reason as
     in handle_event. *)
  every_tick (fun () -> t.Run_ctx.backend.Run_ctx.poll t);
  every_tick (fun () -> Watchdog.poll t);
  Option.iter every_tick fault_poll;
  t
