(* The replay/check stage: everything driven by checker tracer events.
   Launches checkers over recorded segments, replays their R/R logs,
   drives them to the recorded execution points, compares program
   state, and classifies divergences. *)

module E = Sim_os.Engine
open Run_ctx

let launch_checker t seg =
  let checker = Segment.checker seg in
  let r = Segment.recorded seg in
  (* Runtime faults are armed by the coordinator's engine tick, not by
     the kernel. *)
  let replay, pending_signals =
    Replay_kernel.arm (E.cpu t.eng checker) ~origin_branches:0 ~origin_insns:0
      ~signals:(Rr_log.signal_points r.Segment.log)
      ~end_point:r.Segment.end_point ~insn_delta:r.Segment.insn_delta
      ~timeout_scale:Config.timeout_scale ~fault:t.cfg.Config.fault_plan
      ~segment:(Segment.id seg) ~attempt:(Segment.redispatches seg)
  in
  (* A streaming checker was launched when recording started and may be
     stalled at its next interaction; a Parallaft checker is launched
     here, once its segment is fully recorded. *)
  let was_streaming = Segment.streaming seg <> None in
  (* Re-check support: the spare is forked before the checker runs.
     Streaming checkers have already executed, so there is nothing
     pristine to fork and RAFT segments fall through to the normal
     failure path instead. The remote backend needs spares even without
     the re-check extension: its nodes die for infrastructure reasons,
     and a re-dispatch must always have a snapshot to launch from. A
     first remote launch finds the spare forked at dispatch; a
     re-dispatch relaunches here directly and forks it now. *)
  if
    (t.cfg.Config.recheck_on_mismatch
    || Config.backend_eager_spares t.cfg.Config.backend)
    && (not was_streaming)
    && Segment.spare seg = None
    && retries_left t seg
  then fork_spare t seg;
  let was_waiting = Segment.waiting seg in
  let launched_at_ns =
    match Segment.launched_at seg with
    | Some ns -> ns
    | None -> E.time_ns t.eng
  in
  (* The lease clock starts at the actual launch — a checker that dies
     before this point is the watchdog's pre-launch swap, not a
     heartbeat expiry. *)
  Segment.begin_checking seg ~replay ~pending_signals ~launched_at_ns
    ~now_ns:(E.now_ns t.eng)
    ~insns:(Machine.Cpu.instructions (E.cpu t.eng checker));
  (* Every launch is a dispatch; one above incarnation 0 (a re-check, a
     watchdog retry, a pre-launch swap) is also a re-dispatch. *)
  let b = t.stats.Stats.backend in
  b.Stats.b_dispatched <- b.Stats.b_dispatched + 1;
  if Segment.redispatches seg > 0 then
    b.Stats.b_redispatched <- b.Stats.b_redispatched + 1;
  t.backend.launched t seg;
  t.stats.Stats.segment_insn_deltas <-
    r.Segment.insn_delta :: t.stats.Stats.segment_insn_deltas;
  E.observe t.eng "segment.insns" (float_of_int r.Segment.insn_delta);
  E.emit t.eng ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("targets", Obs.Trace.Int (List.length pending_signals + 1));
        ("insns", Obs.Trace.Int r.Segment.insn_delta);
      ]
    "replay.start";
  if not was_streaming then begin
    E.emit t.eng ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Begin
      ~args:[ ("seg", Obs.Trace.Int (Segment.id seg)) ]
      "check";
    (* The "replay" scope covers the checker's whole check; the
       scheduler's "checker_launch" scope (queue wait + dispatch) nests
       inside it on the same track, so replay self-time excludes it. *)
    E.phase_enter t.eng ~track:(Obs.Trace.Proc checker)
      ~segment:(Segment.id seg) "replay";
    Core_pool.enqueue t.pool ~tid:t.tid checker
  end
  else if was_waiting then
    (* The streaming checker is stalled at its next interaction. Resuming
       re-raises the stop: if it is resting on the segment-end pc the
       freshly armed breakpoint fires first and completes the segment;
       otherwise the syscall retries against the now-complete log. *)
    E.resume t.eng checker

(* Checker-side fault bookkeeping: latch a fired injection before the
   checker (and its cpu) goes away. [false] when no checker-side plan
   covers the segment. *)
let latch_checker_fault t seg cpu =
  match t.cfg.Config.fault_plan with
  | Some plan
    when Fault.targets_checker plan && Fault.covers plan ~segment:(Segment.id seg) ->
    t.stats.Stats.fi_fired <- t.stats.Stats.fi_fired || Machine.Cpu.fault_injected cpu;
    true
  | Some _ | None -> false

(* Kill the current checker and relaunch the check on the pristine
   spare. The dying checker's "check" span closes here, before the
   replacement opens a new one on its own track, so span nesting stays
   balanced across re-dispatches. *)
let redispatch_check t seg ~because outcome =
  let old = Segment.checker seg in
  let spare =
    match Segment.spare seg with
    | Some sp -> sp
    | None ->
      raise
        (Segment.Invariant_violation
           (Printf.sprintf "segment %d: re-dispatch with no spare"
              (Segment.id seg)))
  in
  ignore (latch_checker_fault t seg (E.cpu t.eng old));
  close_check t seg ~outcome:("re-dispatched: " ^ because);
  kill_if_alive t old;
  Core_pool.finished t.pool old;
  E.phase_leave t.eng ~track:(Obs.Trace.Proc old) "replay";
  Hashtbl.remove t.roles old;
  t.stats.Stats.rechecks <- t.stats.Stats.rechecks + 1;
  (* The first failure in the chain is what a passing re-check
     resolves; a watchdog retry of an already re-checked segment keeps
     the original. *)
  if Segment.recheck_of seg = None then
    Segment.set_recheck_of seg (Some outcome);
  Segment.redispatch seg ~checker:spare;
  Hashtbl.replace t.roles spare (Checker_role seg);
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("trigger", Obs.Trace.Str because);
        ("outcome", Obs.Trace.Str (Detection.outcome_to_string outcome));
      ]
    "recheck";
  launch_checker t seg

(* May this failure be retried on a fresh checker before it counts as a
   detection? Bounded by the re-dispatch budget (>= 1 so the plain
   re-check always gets its one shot); needs the spare the re-check
   machinery forks at launch. *)
let can_redispatch t seg =
  t.cfg.Config.recheck_on_mismatch
  && Segment.spare seg <> None
  && retries_left t seg

(* Same question for an infrastructure failure (the checker died or
   stalled, it did not produce a verdict): the remote backend retries
   those on its spares even without the re-check extension — a node
   death says nothing about the program. *)
let can_redispatch_infra t seg =
  (t.cfg.Config.recheck_on_mismatch
  || Config.backend_eager_spares t.cfg.Config.backend)
  && Segment.spare seg <> None
  && retries_left t seg

let really_finish_checker t seg outcome_opt =
  let checker = Segment.checker seg in
  let snapshot = Segment.snapshot seg in
  let cpu = E.cpu t.eng checker in
  Machine.Cpu.disarm_insn_overflow cpu;
  Machine.Cpu.disarm_branch_overflow cpu;
  Machine.Cpu.disarm_fault_injection cpu;
  Machine.Cpu.clear_all_breakpoints cpu;
  (* Persistent-fault classification: a detection after a rollback,
     before the verified prefix has advanced again, means re-execution
     reproduced the failure — burning the remaining recovery budget on
     further rollbacks cannot help. *)
  let outcome_opt =
    match outcome_opt with
    | Some o
      when t.cfg.Config.recovery
           && t.rollback_anchor <> None
           && not t.verified_since_rollback ->
      Some
        (Detection.Hard_fault
           {
             segment = Segment.id seg;
             rollbacks = t.stats.Stats.recoveries;
             last = Detection.outcome_to_string o;
           })
    | x -> x
  in
  (* A passing re-check resolves the original failure as the checker's
     own: transient, no rollback, the run continues. *)
  let transient =
    match (outcome_opt, Segment.recheck_of seg) with
    | None, Some orig ->
      Some (Detection.Transient_checker_fault (Detection.outcome_to_string orig))
    | _ -> None
  in
  (* Fault-injection classification for this run (checker-side targets;
     main-side plans are classified at run level by Runtime). *)
  if latch_checker_fault t seg cpu then
    t.stats.Stats.fi_outcome <-
      (match (outcome_opt, transient) with
      | Some o, _ -> Some o
      | None, Some tr -> Some tr
      | None, None -> if t.stats.Stats.fi_fired then Some Detection.Benign else None);
  (match transient with
  | Some tr ->
    t.stats.Stats.transient_faults <- t.stats.Stats.transient_faults + 1;
    E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
      ~args:
        [
          ("seg", Obs.Trace.Int (Segment.id seg));
          ("outcome", Obs.Trace.Str (Detection.outcome_to_string tr));
        ]
      "recheck.transient"
  | None -> ());
  (match outcome_opt with
  | Some o -> record_detection t seg o
  | None -> ());
  (match outcome_opt with
  | Some (Detection.Hard_fault _) ->
    t.stats.Stats.hard_faults <- t.stats.Stats.hard_faults + 1
  | Some _ | None -> ());
  close_check t seg
    ~outcome:
      (match (outcome_opt, transient) with
      | Some o, _ -> Detection.outcome_to_string o
      | None, Some tr -> Detection.outcome_to_string tr
      | None, None -> "ok");
  (* Done only now: the check's launch time, which the span close
     samples the latency from, is part of its checking state. A RAFT
     streaming check that dies while its segment still records was
     never launched, so it counts its dispatch here. *)
  let unlaunched = Segment.phase seg = Segment.Recording_p in
  Segment.complete seg;
  kill_if_alive t checker;
  (match Segment.spare seg with
  | Some sp ->
    kill_if_alive t sp;
    Segment.set_spare seg None
  | None -> ());
  let b = t.stats.Stats.backend in
  if unlaunched then b.Stats.b_dispatched <- b.Stats.b_dispatched + 1;
  b.Stats.b_verified <- b.Stats.b_verified + 1;
  let failed = outcome_opt <> None in
  (if t.cfg.Config.recovery && not failed then
     Recovery.note_verified t ~id:(Segment.id seg) ~snapshot
   else
     match snapshot with
     | Some snap -> kill_if_alive t snap
     | None -> ());
  t.live <- List.filter (fun s -> Segment.id s <> Segment.id seg) t.live;
  Core_pool.finished t.pool checker;
  E.phase_leave t.eng ~track:(Obs.Trace.Proc checker) "replay";
  if failed then begin
    match outcome_opt with
    | Some (Detection.Hard_fault _) ->
      (* Structured diagnostics (segment, rollbacks, last outcome) are
         already in the recorded outcome; stop burning the budget. *)
      Recovery.abort_run t
    | _ -> Recorder.recover_or_abort t
  end
  else if t.main_exited && t.cur = None && t.live = [] then
    (* The last checker verified after a clean main exit: the run is
       fully checked, so the retained recovery state has no further
       purpose — free it or the engine never reaches zero live
       processes. *)
    release_recovery_state t
  else if t.pending_boundary && live_count t < live_limit t then begin
    t.pending_boundary <- false;
    E.phase_leave t.eng ~track:(main_track t) "main_held";
    Recorder.do_boundary t
  end

(* Act on a verdict: if the re-check machinery can still retry a failure
   on a fresh checker, it is not yet a detection. The backend's verdict
   router has already had its chance to park or discard. *)
let deliver_verdict t seg outcome_opt =
  match outcome_opt with
  | Some o when can_redispatch t seg ->
    redispatch_check t seg ~because:"checker-side failure" o
  | _ -> really_finish_checker t seg outcome_opt

(* Every verdict funnels through here: the backend may park it (a
   remote node returning late) or discard it (stale incarnation), in
   which case the replayer must not act yet — the backend's poll will
   call {!deliver_verdict} when (if) the verdict becomes due. *)
let finish_checker t seg outcome_opt =
  if not (t.backend.route_verdict t seg outcome_opt) then
    deliver_verdict t seg outcome_opt

(* Infrastructure failures (the checker died or stalled without
   producing a verdict) never route through the backend's verdict path:
   there is nothing to park. *)
let finish_checker_infra t seg outcome =
  if can_redispatch_infra t seg then
    redispatch_check t seg ~because:"checker-side failure" outcome
  else really_finish_checker t seg (Some outcome)

(* The checker rests on the recorded end point with its log consumed:
   compare its state with the main's end-of-segment snapshot. *)
let check_end_state t seg =
  let c = Segment.checking seg in
  let cpu = E.cpu t.eng (Segment.checker seg) in
  if Config.compare_states t.cfg then begin
    match c.Segment.snapshot with
    | None -> finish_checker t seg None
    | Some snap ->
      let checker_dirty =
        Dirty_tracker.collect t.cfg.Config.dirty_backend
          (page_table_of t (Segment.checker seg))
      in
      let union = Comparator.union_sorted c.Segment.main_dirty checker_dirty in
      let verdict, cs =
        Comparator.compare_states ?cache:t.page_digests
          ~reference:(E.cpu t.eng snap) ~candidate:cpu ~dirty_vpns:union ()
      in
      let bytes = cs.Comparator.bytes_hashed in
      let cycles = bytes / max 1 (plat t).Platform.hash_bytes_per_cycle in
      charge t ~segment:(Segment.id seg) (Segment.checker seg) "compare"
        ~ns:(cycles_to_ns t cycles);
      t.stats.Stats.bytes_hashed <- t.stats.Stats.bytes_hashed + bytes;
      t.stats.Stats.pages_skipped_identical <-
        t.stats.Stats.pages_skipped_identical
        + cs.Comparator.pages_skipped_identical;
      t.stats.Stats.page_hash_hits <-
        t.stats.Stats.page_hash_hits + cs.Comparator.page_hash_hits;
      t.stats.Stats.page_hash_misses <-
        t.stats.Stats.page_hash_misses + cs.Comparator.page_hash_misses;
      t.stats.Stats.segments_compared <- t.stats.Stats.segments_compared + 1;
      E.emit t.eng ~track:(Obs.Trace.Proc (Segment.checker seg))
        ~phase:Obs.Trace.Instant
        ~args:
          [
            ("seg", Obs.Trace.Int (Segment.id seg));
            ("bytes", Obs.Trace.Int bytes);
            ( "skipped_identical",
              Obs.Trace.Int cs.Comparator.pages_skipped_identical );
            ("hash_hits", Obs.Trace.Int cs.Comparator.page_hash_hits);
            ("hash_misses", Obs.Trace.Int cs.Comparator.page_hash_misses);
            ( "verdict",
              Obs.Trace.Str
                (match verdict with
                | Comparator.Match -> "match"
                | Comparator.Mismatch _ -> "mismatch") );
          ]
        "compare";
      E.observe t.eng "compare.bytes" (float_of_int bytes);
      E.observe t.eng "compare.pages_skipped"
        (float_of_int cs.Comparator.pages_skipped_identical);
      finish_checker t seg
        (match verdict with
        | Comparator.Match -> None
        | Comparator.Mismatch m -> Some (Detection.Detected m))
  end
  else finish_checker t seg None

(* The live world: a segment's current checker in the running
   pipeline. A verdict goes through {!finish_checker}; the end point
   runs the state comparison. *)
module Kernel = Replay_kernel.Make (struct
  type t = Run_ctx.t * Segment.t

  let eng ((t : Run_ctx.t), _) = t.eng
  let pid (_, seg) = Segment.checker seg

  let next_interaction (_, seg) =
    Option.bind (Segment.cursor seg) Rr_log.next_interaction

  let replay (_, seg) = (Segment.checking seg).Segment.replay
  let pending_signals (_, seg) = (Segment.checking seg).Segment.pending_signals

  let set_pending_signals (_, seg) signals =
    (Segment.checking seg).Segment.pending_signals <- signals

  let fail (t, seg) outcome = finish_checker t seg (Some outcome)
  let at_end (t, seg) = check_end_state t seg

  (* Streaming replay caught up with the recorder: wait. *)
  let await_log (_, seg) =
    let streaming = Segment.phase seg = Segment.Recording_p in
    if streaming then Segment.set_waiting seg true;
    streaming

  let settled (_, seg) = Segment.is_done seg

  let note_syscall (t, seg) call =
    E.emit t.eng ~track:(Obs.Trace.Proc (Segment.checker seg))
      ~phase:Obs.Trace.Instant
      ~args:[ ("call", Obs.Trace.Str (Sim_os.Syscall.name call)) ]
      "sys.replay"

  let charge_answer (t, seg) ~bytes =
    charge t ~segment:(Segment.id seg) (Segment.checker seg) "record_io"
      ~ns:(float_of_int bytes *. (plat t).Platform.syscall_record_ns_per_byte)
end)

let handle_checker_event t seg ev = Kernel.handle_event (t, seg) ev
