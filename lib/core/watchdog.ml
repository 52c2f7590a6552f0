(* Checker watchdog (DESIGN.md §13, §18): engine-level progress
   supervision of checking checkers, distinct from the instruction-
   budget timeout — that budget only fires while the checker is
   *executing*, so a checker that dies (runtime kill fault, remote node
   crash) or stops making progress while holding a core (stall fault,
   livelock, wedged node) would otherwise hang the run until the
   engine's global hang bound.

   Stall detection is one path for every backend: the watchdog observes
   (progress, excuse, time) and asks the checking segment whether its
   lease expired ([Segment.heartbeat]); the lease clock lives in the
   segment's checking state and starts at launch, so the window
   between dispatch and launch is the phase poll's below: a checker
   dying there is swapped for the segment's spare while it holds one
   and the budget lasts, instead of hanging.

   Polled from Coordinator.handle_event after every routed event —
   before the invariant sweep, so a dead checker is re-dispatched or
   failed before the sweep would flag it — and from a periodic engine
   tick for the no-events case (a stalled checker generates none). *)

module E = Sim_os.Engine
open Run_ctx

let note_kill t seg ~reason =
  t.stats.Stats.watchdog_kills <- t.stats.Stats.watchdog_kills + 1;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("checker", Obs.Trace.Int (Segment.checker seg));
        ("reason", Obs.Trace.Str reason);
      ]
    "watchdog.kill"

let respond t seg ~reason =
  note_kill t seg ~reason;
  let b = t.stats.Stats.backend in
  b.Stats.b_leases_expired <- b.Stats.b_leases_expired + 1;
  (* The infra funnel re-dispatches onto the spare while the retry
     budget lasts, and records a detection (rollback or abort) once it
     runs out. It tolerates an already-exited checker. *)
  Replayer.finish_checker_infra t seg (Detection.Exception_detected reason)

(* A checker that dies before its check even launches and cannot be
   replaced has no way to verify its segment. Straight to the
   recover-or-abort response. *)
let fail_unlaunched t seg ~reason =
  note_kill t seg ~reason;
  record_detection t seg (Detection.Exception_detected reason);
  Recorder.recover_or_abort t

(* The pre-launch swap: count the kill against the dead pid, promote
   the (pristine) spare and fork a replacement spare off it — even when
   the swap spent the last retry — and the launch still pending picks
   the new checker up. Only a remote dispatch forks a spare before
   launch, so only remote segments are ever swapped. *)
let swap_prelaunch t seg ~spare =
  note_kill t seg ~reason:"checker died before launch (watchdog)";
  Hashtbl.remove t.roles (Segment.checker seg);
  Segment.replace_checker_prelaunch seg ~checker:spare;
  Hashtbl.replace t.roles spare (Checker_role seg);
  fork_spare t seg

(* One checking segment. Dead checkers are handled unconditionally;
   stall detection needs a positive budget and excuses a checker queued
   behind busy cores. A checking segment's log is complete, so its
   checker never waits on the recorder. *)
let poll_segment t seg =
  let checker = Segment.checker seg in
  match E.state t.eng checker with
  | E.Exited _ -> respond t seg ~reason:"checker died (watchdog)"
  | E.Runnable | E.Stopped ->
    if t.cfg.Config.watchdog_stall_ns > 0 then begin
      let now = E.now_ns t.eng in
      let insns = Machine.Cpu.instructions (E.cpu t.eng checker) in
      let excused = List.mem checker (Core_pool.queued_pids t.pool ~tid:t.tid) in
      match
        Segment.heartbeat seg ~now_ns:now ~insns ~excused
          ~budget_ns:t.cfg.Config.watchdog_stall_ns
      with
      | `Ok -> ()
      | `Expired -> respond t seg ~reason:"checker stalled (watchdog)"
    end

let poll_one t seg =
  match Segment.phase seg with
  | Segment.Checking_p -> poll_segment t seg
  | Segment.Awaiting_launch_p -> (
    match (E.state t.eng (Segment.checker seg), Segment.spare seg) with
    | E.Exited _, Some spare when retries_left t seg ->
      swap_prelaunch t seg ~spare
    | E.Exited _, (Some _ | None) ->
      fail_unlaunched t seg ~reason:"checker died before launch (watchdog)"
    | (E.Runnable | E.Stopped), _ -> ())
  | Segment.Recording_p -> (
    match E.state t.eng (Segment.checker seg) with
    | E.Exited _ ->
      fail_unlaunched t seg ~reason:"checker died before launch (watchdog)"
    | E.Runnable | E.Stopped -> ())
  | Segment.Done_p -> ()

let poll t =
  if not t.aborted then begin
    List.iter
      (fun seg ->
        (* Guards re-evaluated per segment: an earlier response in this
           sweep may have rolled back or aborted the whole run. *)
        if (not t.aborted) && not (Segment.torn_down seg) then poll_one t seg)
      t.live;
    match t.cur with
    | Some seg when (not t.aborted) && not (Segment.torn_down seg) ->
      poll_one t seg
    | Some _ | None -> ()
  end
