(* Tests of the typed segment pipeline: unit tests that every illegal
   state-machine transition is rejected, and a qcheck property driving
   random workloads through both modes with fault plans and recovery
   under PARALLAFT_INVARIANTS-style checking — asserting every segment
   walks a legal Recording -> Awaiting_launch -> Checking -> Done path
   and no engine process leaks at run end. *)

module Seg = Parallaft.Segment
module Oracle = Experiments.Oracle

let platform = Platform.testing

(* ------------------------------------------------------------------ *)
(* Building blocks for driving the state machine directly.              *)

let make_cpu () =
  let program =
    Isa.Asm.assemble_exn "li r1, 100\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt"
  in
  let alloc = Mem.Frame.allocator ~page_size:platform.Platform.page_size in
  let aspace = Mem.Address_space.create alloc in
  Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace ()

let end_point = { Parallaft.Exec_point.branches = 5; pc = 3 }

let make_replay () =
  Parallaft.Exec_point.start_replay ~targets:[ end_point ] ~cpu:(make_cpu ())

let fresh () = Seg.create ~id:0 ~checker:42

let recorded_seg () =
  let seg = fresh () in
  Seg.finish_recording seg ~end_point ~insn_delta:100 ~main_dirty:[||]
    ~snapshot:None;
  seg

let checking_seg () =
  let seg = recorded_seg () in
  Seg.begin_checking seg ~replay:(make_replay ()) ~pending_signals:[]
    ~launched_at_ns:7 ~now_ns:7 ~insns:0;
  seg

let done_seg () =
  let seg = checking_seg () in
  Seg.complete seg;
  seg

let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invariant_violation" name
  | exception Seg.Invariant_violation _ -> ()

(* ------------------------------------------------------------------ *)
(* Legal paths                                                          *)

let test_parallaft_path () =
  let seg = fresh () in
  Alcotest.(check bool) "starts recording" true
    (Seg.phase seg = Seg.Recording_p);
  Seg.finish_recording seg ~end_point ~insn_delta:100 ~main_dirty:[||]
    ~snapshot:None;
  Alcotest.(check bool) "awaiting launch" true
    (Seg.phase seg = Seg.Awaiting_launch_p);
  Alcotest.(check bool) "not launched before checking" true
    (Seg.launched_at seg = None);
  Seg.begin_checking seg ~replay:(make_replay ()) ~pending_signals:[]
    ~launched_at_ns:7 ~now_ns:7 ~insns:0;
  Alcotest.(check bool) "checking" true (Seg.phase seg = Seg.Checking_p);
  Alcotest.(check (option int)) "launch time" (Some 7) (Seg.launched_at seg);
  Seg.complete seg;
  Alcotest.(check bool) "done" true (Seg.is_done seg);
  Alcotest.(check bool) "history legal" true (Seg.legal_history (Seg.history seg));
  Alcotest.(check int) "four phases" 4 (List.length (Seg.history seg));
  Seg.check_invariants seg

let test_streaming_death_path () =
  (* A RAFT streaming checker that dies mid-record retires its segment
     straight from Recording. *)
  let seg = fresh () in
  Seg.start_streaming seg ~started_ns:3;
  Alcotest.(check bool) "still recording" true
    (Seg.phase seg = Seg.Recording_p);
  Alcotest.(check (option int)) "launched when streaming" (Some 3)
    (Seg.launched_at seg);
  Alcotest.(check bool) "has a cursor" true (Seg.cursor seg <> None);
  Seg.set_waiting seg true;
  Alcotest.(check bool) "waiting" true (Seg.waiting seg);
  Seg.set_waiting seg false;
  Seg.complete seg;
  Alcotest.(check bool) "history legal" true (Seg.legal_history (Seg.history seg));
  Seg.check_invariants seg

let test_streaming_cursor_inherited () =
  (* begin_checking must keep the streaming cursor (the checker already
     consumed a log prefix), not mint a fresh one. *)
  let seg = fresh () in
  Seg.start_streaming seg ~started_ns:3;
  let log = Seg.log seg in
  Parallaft.Rr_log.record log
    (Seglog.Record.Sys
       { call = Sim_os.Syscall.Getpid; in_data = None; result = 1; effects = [] });
  let cursor = Option.get (Seg.cursor seg) in
  ignore (Parallaft.Rr_log.next_interaction cursor);
  Seg.finish_recording seg ~end_point ~insn_delta:100 ~main_dirty:[||]
    ~snapshot:None;
  Seg.begin_checking seg ~replay:(make_replay ()) ~pending_signals:[]
    ~launched_at_ns:9 ~now_ns:9 ~insns:0;
  let c = Seg.checking seg in
  Alcotest.(check bool) "consumed prefix not replayed again" true
    (Parallaft.Rr_log.next_interaction c.Seg.cursor = None);
  Alcotest.(check (option int)) "streaming launch time kept" (Some 9)
    (Seg.launched_at seg)

(* ------------------------------------------------------------------ *)
(* Illegal transitions and out-of-state accesses                        *)

let test_illegal_transitions () =
  expect_violation "complete while recording (no streaming)" (fun () ->
      Seg.complete (fresh ()));
  expect_violation "complete before launch" (fun () ->
      Seg.complete (recorded_seg ()));
  expect_violation "complete twice" (fun () -> Seg.complete (done_seg ()));
  expect_violation "begin_checking while recording" (fun () ->
      Seg.begin_checking (fresh ()) ~replay:(make_replay ()) ~pending_signals:[]
        ~launched_at_ns:0 ~now_ns:0 ~insns:0);
  expect_violation "begin_checking twice" (fun () ->
      Seg.begin_checking (checking_seg ()) ~replay:(make_replay ())
        ~pending_signals:[] ~launched_at_ns:0 ~now_ns:0 ~insns:0);
  expect_violation "begin_checking after done" (fun () ->
      Seg.begin_checking (done_seg ()) ~replay:(make_replay ())
        ~pending_signals:[] ~launched_at_ns:0 ~now_ns:0 ~insns:0);
  expect_violation "finish_recording twice" (fun () ->
      let seg = recorded_seg () in
      Seg.finish_recording seg ~end_point ~insn_delta:1 ~main_dirty:[||]
        ~snapshot:None);
  expect_violation "finish_recording after done" (fun () ->
      let seg = done_seg () in
      Seg.finish_recording seg ~end_point ~insn_delta:1 ~main_dirty:[||]
        ~snapshot:None);
  expect_violation "streaming started twice" (fun () ->
      let seg = fresh () in
      Seg.start_streaming seg ~started_ns:1;
      Seg.start_streaming seg ~started_ns:2);
  expect_violation "streaming after recording ended" (fun () ->
      Seg.start_streaming (recorded_seg ()) ~started_ns:1)

let test_out_of_state_accesses () =
  expect_violation "log after done" (fun () -> Seg.log (done_seg ()));
  expect_violation "recorded while recording" (fun () -> Seg.recorded (fresh ()));
  expect_violation "checking while awaiting launch" (fun () ->
      Seg.checking (recorded_seg ()));
  expect_violation "set_waiting without streaming" (fun () ->
      Seg.set_waiting (fresh ()) true);
  (* Total accessors answer in every state. *)
  Alcotest.(check bool) "no cursor before streaming/launch" true
    (Seg.cursor (fresh ()) = None);
  Alcotest.(check bool) "no snapshot when done" true
    (Seg.snapshot (done_seg ()) = None);
  Alcotest.(check bool) "not waiting without streaming" false
    (Seg.waiting (fresh ()))

let test_legal_transition_table () =
  let all = [ Seg.Recording_p; Seg.Awaiting_launch_p; Seg.Checking_p; Seg.Done_p ] in
  let legal =
    [
      (Seg.Recording_p, Seg.Awaiting_launch_p);
      (Seg.Awaiting_launch_p, Seg.Checking_p);
      (Seg.Checking_p, Seg.Done_p);
      (Seg.Recording_p, Seg.Done_p);
      (* Re-dispatch: a failed check returns to the launch queue on a
         spare checker (transient re-check / watchdog replacement). *)
      (Seg.Checking_p, Seg.Awaiting_launch_p);
    ]
  in
  List.iter
    (fun from ->
      List.iter
        (fun into ->
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s" (Seg.phase_to_string from)
               (Seg.phase_to_string into))
            (List.mem (from, into) legal)
            (Seg.legal_transition ~from ~into))
        all)
    all;
  Alcotest.(check bool) "history must start at recording" false
    (Seg.legal_history [ Seg.Checking_p; Seg.Done_p ])

(* ------------------------------------------------------------------ *)
(* Property: random workloads x modes x fault plans x recovery, with
   invariant checking on throughout. Every segment's history is legal,
   clean runs retire every segment, and the engine ends with zero live
   processes (no leaked checkers, snapshots or recovery points). *)

type scenario = {
  raft : bool;
  recovery : bool;
  fault : Fault.plan option;
  wl_seed : int;
  outer : int;
  io_every : int;
  store_every : int;
}

let gen_scenario =
  QCheck.Gen.(
    let* raft = bool in
    let* recovery = bool in
    let* with_fault = bool in
    let* fault_seg = 0 -- 2 in
    let* delay = 40 -- 120 in
    let* reg = 10 -- 13 in
    let* bit = 0 -- 12 in
    let* wl_seed = 0 -- 400 in
    let* outer = 4 -- 10 in
    let* io_every = 2 -- 5 in
    let* store_every = 0 -- 3 in
    let fault =
      if with_fault then
        Some
          (Fault.checker_register
             ~segment:(if raft then 0 else fault_seg)
             ~delay_instructions:delay ~reg ~bit)
      else None
    in
    return { raft; recovery; fault; wl_seed; outer; io_every; store_every })

let print_scenario s =
  Printf.sprintf
    "{mode=%s; recovery=%b; fault=%s; wl_seed=%d; outer=%d; io=%d; store=%d}"
    (if s.raft then "raft" else "parallaft")
    s.recovery
    (match s.fault with
    | None -> "none"
    | Some f ->
      Fault.to_string f)
    s.wl_seed s.outer s.io_every s.store_every

let run_scenario s =
  let program =
    Workloads.Codegen.generate ~name:"segprop"
      ~seed:(Int64.of_int (s.wl_seed + 1))
      ~page_size:platform.Platform.page_size
      {
        Workloads.Codegen.pattern =
          Workloads.Codegen.Chase { pages = 6; hot_pages = 3; cold_every = 2 };
        alu_per_mem = 3;
        store_every = s.store_every;
        outer_iters = s.outer;
        inner_iters = 30;
        io_every = s.io_every;
        gettime_every = 4;
        rdtsc_every = 0;
        mmap_churn = false;
      }
  in
  let base =
    if s.raft then Parallaft.Config.raft ~platform ()
    else Parallaft.Config.parallaft ~platform ~slice_period:15_000 ()
  in
  let config =
    {
      base with
      Parallaft.Config.check_invariants = true;
      recovery = s.recovery;
      fault_plan = s.fault;
    }
  in
  let captured = ref None in
  let r =
    Parallaft.Runtime.run_protected ~platform ~config ~program
      ~before_run:(fun _ coord -> captured := Some coord)
      ()
  in
  (r, Option.get !captured)

(* The run oracle's violation, if any. These workloads read the clock,
   so no fault-free twin exists: the clauses that need no reference
   still hold (settled, each segment verified at most once, no process
   left behind). *)
let violation r =
  match Oracle.judge (Oracle.Protected r) with
  | Oracle.Clean | Oracle.Recovered | Oracle.Fail_stop -> None
  | Oracle.Violation _ as v -> Some (Oracle.to_string v)

let prop_scenario s =
  let r, coord = run_scenario s in
  let histories = Parallaft.Coordinator.segment_histories coord in
  if histories = [] then QCheck.Test.fail_report "no segments recorded";
  List.iter
    (fun (id, hist) ->
      if not (Seg.legal_history hist) then
        QCheck.Test.fail_reportf "segment %d: illegal history [%s]" id
          (String.concat "; " (List.map Seg.phase_to_string hist)))
    histories;
  (if r.Parallaft.Runtime.detections = [] && not r.Parallaft.Runtime.aborted
   then begin
     if r.Parallaft.Runtime.exit_status <> Some 0 then
       QCheck.Test.fail_report "clean run did not exit 0";
     List.iter
       (fun (id, hist) ->
         match List.rev hist with
         | Seg.Done_p :: _ -> ()
         | _ ->
           QCheck.Test.fail_reportf "segment %d of a clean run not retired" id)
       histories
   end);
  Option.iter QCheck.Test.fail_report (violation r);
  true

let qcheck_pipeline_paths_and_no_leaks =
  QCheck.Test.make
    ~name:"random runs: legal segment paths, no pid leaks (invariants on)"
    ~count:30
    (QCheck.make ~print:print_scenario gen_scenario)
    prop_scenario

(* Directed streaming coverage: RAFT + recovery + fault is the branchiest
   path (streaming checker torn down mid-record, rollback, restart). *)
let test_raft_recovery_invariants () =
  let s =
    {
      raft = true;
      recovery = true;
      fault =
        Some
          (Fault.checker_register ~segment:0 ~delay_instructions:60 ~reg:13 ~bit:6);
      wl_seed = 7;
      outer = 8;
      io_every = 3;
      store_every = 2;
    }
  in
  let r, coord = run_scenario s in
  Alcotest.(check (option string)) "oracle violation" None (violation r);
  Alcotest.(check bool) "all histories legal" true
    (List.for_all
       (fun (_, h) -> Seg.legal_history h)
       (Parallaft.Coordinator.segment_histories coord));
  Alcotest.(check bool) "run completed" true
    (r.Parallaft.Runtime.exit_status = Some 0 || r.Parallaft.Runtime.aborted)

(* {2 Faults during recovery (DESIGN.md §13)}

   Chaos layer: an engine tick murders random live checkers — including
   re-recorded ones mid-rollback and spares' owners mid-re-check — while
   an ordinary fault plan is ALSO driving rollbacks. Whatever interleaving
   results, the pipeline must neither corrupt its state machine nor leak
   processes nor hang: every history stays legal, the engine ends empty,
   and the run either completes or aborts loudly. *)

type chaos = {
  c_wl_seed : int;
  c_interval : int;  (** ns between murder attempts *)
  c_one_in : int;  (** kill with probability 1/c_one_in per tick *)
  c_recheck : bool;
  c_with_plan : bool;
}

let gen_chaos =
  QCheck.Gen.(
    let* c_wl_seed = 0 -- 200 in
    let* c_interval = 20_000 -- 120_000 in
    let* c_one_in = 1 -- 4 in
    let* c_recheck = bool in
    let* c_with_plan = bool in
    return { c_wl_seed; c_interval; c_one_in; c_recheck; c_with_plan })

let print_chaos c =
  Printf.sprintf "{wl_seed=%d; interval=%d; one_in=%d; recheck=%b; plan=%b}"
    c.c_wl_seed c.c_interval c.c_one_in c.c_recheck c.c_with_plan

let run_chaos c =
  let program =
    Workloads.Codegen.generate ~name:"chaos"
      ~seed:(Int64.of_int (c.c_wl_seed + 1))
      ~page_size:platform.Platform.page_size
      {
        Workloads.Codegen.pattern =
          Workloads.Codegen.Chase { pages = 6; hot_pages = 3; cold_every = 2 };
        alu_per_mem = 3;
        store_every = 2;
        outer_iters = 8;
        inner_iters = 30;
        io_every = 3;
        gettime_every = 4;
        rdtsc_every = 0;
        mmap_churn = false;
      }
  in
  let config =
    {
      (Parallaft.Config.parallaft ~platform ~slice_period:15_000 ()) with
      Parallaft.Config.check_invariants = true;
      recovery = true;
      recheck_on_mismatch = c.c_recheck;
      fault_plan =
        (if c.c_with_plan then
           Some
             (Fault.checker_register ~segment:1 ~delay_instructions:60 ~reg:13
                ~bit:6)
         else None);
    }
  in
  let rng = Util.Rng.create ~seed:(Int64.of_int (c.c_wl_seed + 99)) in
  let captured = ref None in
  let r =
    Parallaft.Runtime.run_protected ~platform ~config ~program
      ~before_run:(fun eng coord ->
        captured := Some coord;
        Sim_os.Engine.add_tick eng ~every_ns:c.c_interval (fun eng ->
            let main = Parallaft.Coordinator.main_pid coord in
            let victims =
              List.filter
                (fun p ->
                  p <> main
                  &&
                  match Sim_os.Engine.state eng p with
                  | Sim_os.Engine.Exited _ -> false
                  | Sim_os.Engine.Runnable | Sim_os.Engine.Stopped -> true)
                (Parallaft.Coordinator.live_pids coord)
            in
            if victims <> [] && Util.Rng.int rng c.c_one_in = 0 then
              Sim_os.Engine.kill eng
                (List.nth victims (Util.Rng.int rng (List.length victims)))))
      ()
  in
  (r, Option.get !captured)

let prop_chaos c =
  let r, coord = run_chaos c in
  List.iter
    (fun (id, hist) ->
      if not (Seg.legal_history hist) then
        QCheck.Test.fail_reportf "segment %d: illegal history [%s]" id
          (String.concat "; " (List.map Seg.phase_to_string hist)))
    (Parallaft.Coordinator.segment_histories coord);
  Option.iter QCheck.Test.fail_report (violation r);
  (* Loud terminal outcome — a run that neither finished nor aborted hit
     the engine's hang bound with the pipeline wedged. *)
  if not (r.Parallaft.Runtime.exit_status = Some 0 || r.Parallaft.Runtime.aborted)
  then QCheck.Test.fail_report "run neither completed nor aborted";
  true

let qcheck_chaos_during_recovery =
  QCheck.Test.make
    ~name:"checker murders during recovery: legal histories, no leaks, no hang"
    ~count:15
    (QCheck.make ~print:print_chaos gen_chaos)
    prop_chaos

let test_chaos_directed () =
  (* One pinned aggressive case (murder nearly every tick, fault plan and
     re-check both on) so the suite exercises the branchiest interleaving
     deterministically even if the generator drifts. *)
  ignore
    (prop_chaos
       {
         c_wl_seed = 3;
         c_interval = 25_000;
         c_one_in = 1;
         c_recheck = true;
         c_with_plan = true;
       })

let test_histories_disabled_without_flag () =
  let program = Workloads.Micro.getpid_loop ~iters:50 in
  let config = Parallaft.Config.parallaft ~platform ~slice_period:15_000 () in
  let config = { config with Parallaft.Config.check_invariants = false } in
  let captured = ref None in
  ignore
    (Parallaft.Runtime.run_protected ~platform ~config ~program
       ~before_run:(fun _ coord -> captured := Some coord)
       ());
  Alcotest.(check bool) "no history retention when invariants off" true
    (Parallaft.Coordinator.segment_histories (Option.get !captured) = [])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "segment"
    [
      ( "state-machine",
        [
          tc "parallaft path" `Quick test_parallaft_path;
          tc "streaming death path" `Quick test_streaming_death_path;
          tc "streaming cursor inherited" `Quick test_streaming_cursor_inherited;
          tc "illegal transitions rejected" `Quick test_illegal_transitions;
          tc "out-of-state accesses rejected" `Quick test_out_of_state_accesses;
          tc "transition table" `Quick test_legal_transition_table;
        ] );
      ( "pipeline-properties",
        [
          QCheck_alcotest.to_alcotest qcheck_pipeline_paths_and_no_leaks;
          tc "raft recovery with invariants" `Quick test_raft_recovery_invariants;
          tc "histories gated on flag" `Quick test_histories_disabled_without_flag;
        ] );
      ( "fault-during-recovery",
        [
          QCheck_alcotest.to_alcotest qcheck_chaos_during_recovery;
          tc "directed chaos case" `Quick test_chaos_directed;
        ] );
    ]
