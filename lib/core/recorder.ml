(* The record stage: everything driven by main-process tracer events.
   Slices the main into segments, records its application/OS
   interactions into the current segment's R/R log, and hands each
   finished segment to the checker backend's launch policy. Also the
   one place a failed run chooses between rollback and abort
   ([recover_or_abort]): only the recorder can restart recording after
   a rollback. *)

module E = Sim_os.Engine
module R = Seglog.Record
open Run_ctx

let arm_slice t =
  match t.cfg.Config.mode with
  | Config.Raft -> ()
  | Config.Parallaft -> (
    let cpu = main_cpu t in
    match (plat t).Platform.slice_unit with
    | Platform.Cycles ->
      Machine.Cpu.arm_cycle_overflow cpu
        ~target:(Machine.Cpu.cycles cpu + t.cfg.Config.slice_period)
    | Platform.Instructions ->
      Machine.Cpu.arm_insn_overflow cpu
        ~target:(Machine.Cpu.instructions cpu + t.cfg.Config.slice_period))

(* The dirty-page scan of the main's page table: every tracking backend
   visits each mapped PTE once per collect+clear round. *)
let charge_scan t seg pt =
  let pages = Mem.Page_table.mapped_count pt in
  charge t ~segment:(Segment.id seg) t.main "dirty_scan"
    ~ns:(cycles_to_ns t (pages * (plat t).Platform.dirty_scan_per_page_cycles))

let start_segment t =
  let checker = E.fork_process t.eng t.main in
  Dirty_tracker.clear t.cfg.Config.dirty_backend (page_table_of t checker);
  let seg = Segment.create ~id:t.next_id ~checker in
  t.next_id <- t.next_id + 1;
  if t.cfg.Config.check_invariants then t.all_segments <- seg :: t.all_segments;
  Hashtbl.replace t.roles checker (Checker_role seg);
  t.cur <- Some seg;
  E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Begin
    ~args:
      [ ("seg", Obs.Trace.Int (Segment.id seg)); ("checker", Obs.Trace.Int checker) ]
    "segment";
  (* The main core's timeline is now recording this segment; everything
     charged to the main until end_segment (dirty scans, forks, record
     I/O) debits this scope's self-time. *)
  E.phase_enter t.eng ~track:(main_track t) ~segment:(Segment.id seg) "record";
  (* RAFT runs its (single) checker concurrently with the main process,
     streaming the R/R log; the checker blocks whenever it reaches an
     event that has not been recorded yet. Parallaft instead launches
     each checker once its segment is fully recorded (figure 1(b)). *)
  (match t.cfg.Config.mode with
  | Config.Raft ->
    Segment.start_streaming seg ~started_ns:(E.time_ns t.eng);
    E.emit t.eng ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Begin
      ~args:[ ("seg", Obs.Trace.Int (Segment.id seg)) ]
      "check";
    E.phase_enter t.eng ~track:(Obs.Trace.Proc checker)
      ~segment:(Segment.id seg) "replay";
    Core_pool.enqueue t.pool ~tid:t.tid checker
  | Config.Parallaft -> ());
  let cpu = main_cpu t in
  t.seg_start_branches <- Machine.Cpu.branches cpu;
  t.seg_start_insns <- Machine.Cpu.instructions cpu;
  if Config.compare_states t.cfg then begin
    let pt = page_table_of t t.main in
    Dirty_tracker.clear t.cfg.Config.dirty_backend pt;
    charge_scan t seg pt
  end;
  t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1;
  (* Main-side fault arming: the checker fork above predates the
     corruption, so the checker replays the {e intended} execution and
     the comparison catches the divergence. A segment id is recorded
     once (rollback never reuses ids), so the main is always attempt 0:
     a [repeat] plan re-arms at every covered segment start (stuck-at),
     a one-shot plan arms in exactly one segment. *)
  (match t.cfg.Config.fault_plan with
  | Some plan
    when Fault.targets_main plan
         && Fault.arms plan ~segment:(Segment.id seg) ~attempt:0 ->
    Fault.arm_on_cpu (main_cpu t) plan
  | Some _ | None -> ());
  arm_slice t

(* The response to a failure the run cannot absorb: roll back while the
   recovery extension is on and budget is left, abort otherwise. *)
let recover_or_abort t =
  if not (t.cfg.Config.recovery && t.stats.Stats.recoveries < Config.max_recoveries)
  then Recovery.abort_run t
  else if Recovery.recover t then begin
    start_segment t;
    E.resume t.eng t.main
  end

let end_segment t =
  match t.cur with
  | None -> ()
  | Some seg ->
    latch_main_fault t;
    let end_point = exec_point_now t in
    let insn_delta = Machine.Cpu.instructions (main_cpu t) - t.seg_start_insns in
    let main_dirty, snapshot =
      if Config.compare_states t.cfg then begin
        let pt = page_table_of t t.main in
        let dirty = Dirty_tracker.collect t.cfg.Config.dirty_backend pt in
        t.stats.Stats.dirty_pages_total <-
          t.stats.Stats.dirty_pages_total + Array.length dirty;
        E.observe t.eng "segment.dirty_pages"
          (float_of_int (Array.length dirty));
        charge_scan t seg pt;
        let snapshot = E.fork_process t.eng t.main in
        t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1;
        (dirty, Some snapshot)
      end
      else ([||], None)
    in
    Segment.finish_recording seg ~end_point ~insn_delta ~main_dirty ~snapshot;
    (* Persist the finished segment when --record-log is active: the
       same events the checker will consume, plus the end-of-segment
       register snapshot and detached dirty-page payloads (the live
       frames keep mutating once main resumes). *)
    (match t.seglog with
    | None -> ()
    | Some out ->
      let pt = page_table_of t t.main in
      let pages =
        Array.map (fun vpn -> (vpn, Mem.Page_table.copy_page_at pt ~vpn)) main_dirty
      in
      let bytes =
        Seglog_io.write_segment out ~id:(Segment.id seg)
          ~events:(Rr_log.events (Segment.log seg))
          ~end_point ~insn_delta
          ~end_regs:(Machine.Cpu.snapshot_regs (main_cpu t))
          ~pages
      in
      if bytes > 0 then begin
        E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Instant
          ~args:
            [
              ("seg", Obs.Trace.Int (Segment.id seg));
              ("bytes", Obs.Trace.Int bytes);
            ]
          "seglog.write";
        E.observe t.eng "seglog.bytes" (float_of_int bytes);
        (* Serialization: the syscall-record per-byte model, in its own
           phase. Only charged under --record-log. *)
        charge t ~segment:(Segment.id seg) t.main "seglog_write"
          ~ns:(float_of_int bytes *. (plat t).Platform.syscall_record_ns_per_byte)
      end);
    E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.End
      ~args:
        [
          ("seg", Obs.Trace.Int (Segment.id seg));
          ("insns", Obs.Trace.Int insn_delta);
          ("dirty_pages", Obs.Trace.Int (Array.length main_dirty));
        ]
      "segment";
    E.phase_leave t.eng ~track:(main_track t) "record";
    t.cur <- None;
    t.live <- t.live @ [ seg ];
    t.stats.Stats.segments_total <- t.stats.Stats.segments_total + 1;
    (* The verification lag: recorded segments not yet verified. *)
    let b = t.stats.Stats.backend in
    b.Stats.b_max_lag <- max b.Stats.b_max_lag (live_count t);
    t.backend.launch t seg

(* SDC oracle input: main's architectural state at the moment of exit,
   captured before the engine retires the process and frees its address
   space. Meta-level measurement — charges no simulated time. *)
let capture_final_state t =
  let cpu = main_cpu t in
  t.stats.Stats.final_regs <- Some (Machine.Cpu.snapshot_regs cpu);
  t.stats.Stats.final_mem_hash <- Some (Stats.mem_hash (page_table_of t t.main))

let on_main_exited t =
  t.main_exited <- true;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:[ ("live_segments", Obs.Trace.Int (List.length t.live)) ]
    "main.exit";
  (* The main core is now idle while the remaining checkers drain; the
     scope stays open until run end (or rollback) closes it. *)
  E.phase_enter t.eng ~track:(main_track t) "drain";
  let st = E.proc_stats t.eng t.main in
  t.stats.Stats.main_wall_ns <- float_of_int (st.E.ended_ns - st.E.started_ns);
  t.stats.Stats.main_user_ns <- st.E.user_ns;
  t.stats.Stats.main_sys_ns <- st.E.sys_ns;
  Core_pool.main_exited t.pool ~tid:t.tid

let do_boundary t =
  end_segment t;
  if not t.main_exited then begin
    start_segment t;
    E.resume t.eng t.main
  end

let boundary t =
  if live_count t >= live_limit t then begin
    t.pending_boundary <- true;
    E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
      ~args:[ ("live_segments", Obs.Trace.Int (live_count t)) ]
      "main.held";
    E.phase_enter t.eng ~track:(main_track t) "main_held"
    (* main stays stopped until a segment completes *)
  end
  else do_boundary t

(* ------------------------------------------------------------------ *)
(* Main-process events                                                  *)

let current_log t =
  match t.cur with
  | Some seg -> Segment.log seg
  | None ->
    (* Main always runs inside a segment; recording into a throwaway log
       here would silently drop interactions from the replay stream. *)
    raise
      (Segment.Invariant_violation
         "recorder: main interaction arrived outside any segment")

(* RAFT streaming mode: a checker stalled on a missing record can retry
   now that the main has appended one. *)
let wake_waiting_checker t =
  match t.cur with
  | Some seg when Segment.waiting seg -> (
    Segment.set_waiting seg false;
    match E.state t.eng (Segment.checker seg) with
    | E.Stopped -> E.resume t.eng (Segment.checker seg)
    | E.Runnable | E.Exited _ -> ())
  | Some _ | None -> ()

let record_and_pass t call =
  let in_data = Replay_kernel.syscall_in_data (E.aspace t.eng t.main) call in
  E.do_syscall t.eng t.main;
  let result = Machine.Cpu.get_reg (main_cpu t) 0 in
  let effects =
    match (call : Sim_os.Syscall.call) with
    | (Sim_os.Syscall.Read { addr; _ } | Sim_os.Syscall.Getrandom { addr; _ })
      when result > 0 -> (
      match Replay_kernel.read_mem_opt (E.aspace t.eng t.main) ~addr ~len:result with
      | Some data -> [ { R.addr; data } ]
      | None -> [])
    | _ -> []
  in
  let bytes =
    (match in_data with Some b -> Bytes.length b | None -> 0)
    + List.fold_left (fun acc { R.data; _ } -> acc + Bytes.length data) 0 effects
  in
  charge t
    ?segment:(match t.cur with Some s -> Some (Segment.id s) | None -> None)
    t.main "record_io"
    ~ns:(float_of_int bytes *. (plat t).Platform.syscall_record_ns_per_byte);
  Rr_log.record (current_log t) (R.Sys { call; in_data; result; effects });
  t.stats.Stats.syscalls_recorded <- t.stats.Stats.syscalls_recorded + 1;
  E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Instant
    ~args:
      [
        ("call", Obs.Trace.Str (Sim_os.Syscall.name call));
        ("bytes", Obs.Trace.Int bytes);
      ]
    "sys.record";
  E.observe t.eng "record.bytes" (float_of_int bytes);
  wake_waiting_checker t;
  E.resume t.eng t.main

(* File-backed private mmap: slice around the call so the mapping is
   established outside any segment and inherited by the next checker's
   fork (§4.3.2). *)
let mmap_split t call =
  end_segment t;
  E.do_syscall t.eng t.main;
  (* The boundary call executes between segments, so it is invisible to
     the checker — but offline replay must re-establish the mapping, so
     it is persisted as the next segment's preamble. [in_data] carries
     the mapped bytes: the offline replayer has no filesystem state (the
     files the program wrote were answered from the record, never
     created), so the content must travel with the log. *)
  (match t.seglog with
  | None -> ()
  | Some out ->
    let result = Machine.Cpu.get_reg (main_cpu t) 0 in
    let in_data =
      match (call : Sim_os.Syscall.call) with
      | Sim_os.Syscall.Mmap { len; _ } when result >= 0 && len > 0 ->
        Replay_kernel.read_mem_opt (E.aspace t.eng t.main) ~addr:result ~len
      | _ -> None
    in
    Seglog_io.note_preamble out { R.call; in_data; result; effects = [] });
  start_segment t;
  E.resume t.eng t.main

let emulate_nondet t pid insn =
  let value =
    match (insn : Isa.Insn.t) with
    | Isa.Insn.Rdtsc _ -> E.now_ns t.eng
    | Isa.Insn.Rdcoreid _ -> E.core_of t.eng pid
    | Isa.Insn.Rdrand _ -> Util.Rng.bits64 t.rng
    | _ -> 0
  in
  let reg =
    match Isa.Insn.writes_reg insn with
    | Some r -> r
    | None -> 0
  in
  let cpu = E.cpu t.eng pid in
  Machine.Cpu.set_reg cpu reg value;
  Machine.Cpu.set_pc cpu (Machine.Cpu.get_pc cpu + 1);
  value

let handle_main_event t ev =
  match (ev : E.event) with
  | E.Syscall_entry call -> (
    match call with
    | Sim_os.Syscall.Exit _ ->
      end_segment t;
      capture_final_state t;
      E.do_syscall t.eng t.main;
      on_main_exited t
    | Sim_os.Syscall.Mmap { flags; fd; _ }
      when flags land Sim_os.Syscall.map_anon = 0 && fd >= 0 ->
      mmap_split t call
    | _ -> record_and_pass t call)
  | E.Nondet insn ->
    let value = emulate_nondet t t.main insn in
    Rr_log.record (current_log t) (R.Nondet { insn; value });
    t.stats.Stats.nondet_recorded <- t.stats.Stats.nondet_recorded + 1;
    E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Instant "nondet.record";
    wake_waiting_checker t;
    E.resume t.eng t.main
  | E.Cycle_overflow | E.Insn_overflow ->
    t.stats.Stats.nr_slices <- t.stats.Stats.nr_slices + 1;
    E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Instant
      ~args:[ ("nr", Obs.Trace.Int t.stats.Stats.nr_slices) ]
      "slice";
    boundary t
  | E.Signal signum -> (
    Rr_log.record (current_log t)
      (R.Ext_signal { at = exec_point_now t; signum });
    t.stats.Stats.signals_recorded <- t.stats.Stats.signals_recorded + 1;
    E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.Instant
      ~args:[ ("signum", Obs.Trace.Int signum) ]
      "signal.record";
    E.deliver_signal_now t.eng t.main signum;
    match E.state t.eng t.main with
    | E.Exited _ ->
      (* Signal-terminated: nothing left to protect. *)
      Recovery.abort_run t
    | E.Runnable | E.Stopped -> E.resume t.eng t.main)
  | E.Halted ->
    end_segment t;
    capture_final_state t;
    E.force_exit t.eng t.main ~status:0;
    on_main_exited t
  | E.Fault _ ->
    latch_main_fault t;
    let injected =
      match t.cfg.Config.fault_plan with
      | Some plan when Fault.targets_main plan ->
        Machine.Cpu.fault_injected (main_cpu t)
      | Some _ | None -> false
    in
    if injected then begin
      (* The injected main-side corruption surfaced as a hardware
         exception before any checker could compare: a fail-stop
         detection. Record it and roll back if recovery allows. *)
      (match t.cur with
      | Some seg ->
        record_detection t seg
          (Detection.Exception_detected "main fault (injected corruption)")
      | None -> ());
      recover_or_abort t
    end
    else
      (* An application bug in the main process: outside the threat
         model; terminate the protected run. *)
      Recovery.abort_run t
  | E.Breakpoint | E.Branch_overflow ->
    (* Never armed on the main process. *)
    E.resume t.eng t.main
