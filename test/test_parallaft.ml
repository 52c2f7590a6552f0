(* End-to-end tests of the Parallaft runtime: correctness of record and
   replay (no false positives), exactly-once external effects, fault
   detection, timeout kill, RAFT mode, and the scheduler/pacer. *)

module Oracle = Experiments.Oracle

let platform = Platform.testing

let parallaft_cfg ?slice_period () =
  Parallaft.Config.parallaft ~platform ?slice_period ()

let raft_cfg () = Parallaft.Config.raft ~platform ()

(* A workload exercising memory, stores, syscalls (write/gettime/getpid),
   and nondeterministic instructions; small enough to run in tests but
   long enough to produce several segments at a short slicing period. *)
let busy_program ?(outer = 30) () =
  Workloads.Codegen.generate ~name:"busy" ~seed:11L
    ~page_size:platform.Platform.page_size
    {
      Workloads.Codegen.pattern =
        Workloads.Codegen.Chase { pages = 12; hot_pages = 4; cold_every = 2 };
      alu_per_mem = 3;
      store_every = 2;
      outer_iters = outer;
      inner_iters = 40;
      io_every = 3;
      gettime_every = 5;
      rdtsc_every = 0;
      mmap_churn = false;
    }

let mmap_program ?(outer = 20) () =
  Workloads.Codegen.generate ~name:"mmapper" ~seed:12L
    ~page_size:platform.Platform.page_size
    {
      Workloads.Codegen.pattern = Workloads.Codegen.Blocked { pages = 4 };
      alu_per_mem = 4;
      store_every = 3;
      outer_iters = outer;
      inner_iters = 30;
      io_every = 4;
      gettime_every = 0;
      rdtsc_every = 0;
      mmap_churn = true;
    }

(* Like [busy_program] but with no time queries: its output is a pure
   function of the program, so baseline and protected outputs must be
   byte-identical. *)
let deterministic_program = Experiments.Exp_backends.program

let run_protected ?(config = parallaft_cfg ~slice_period:20_000 ()) ?seed program =
  Parallaft.Runtime.run_protected ?seed ~platform ~config ~program ()

let run_baseline ?seed program =
  Parallaft.Runtime.run_baseline ?seed ~platform ~program ()

let check_clean (r : Parallaft.Runtime.report) =
  if r.detections <> [] then
    Alcotest.failf "unexpected detections: %s"
      (String.concat "; "
         (List.map
            (fun (seg, o) ->
              Printf.sprintf "seg %d: %s" seg (Parallaft.Detection.outcome_to_string o))
            r.detections));
  Alcotest.(check bool) "not aborted" false r.aborted;
  Alcotest.(check (option int)) "clean exit" (Some 0) r.exit_status

let test_no_false_positives () =
  let program = busy_program () in
  let r = run_protected program in
  check_clean r;
  Alcotest.(check bool) "sliced into multiple segments" true
    (r.stats.Parallaft.Stats.segments_total > 2);
  Alcotest.(check int) "every segment compared"
    r.stats.Parallaft.Stats.segments_total
    r.stats.Parallaft.Stats.segments_compared

let test_output_identical_and_once () =
  let b = run_baseline deterministic_program in
  let r = run_protected deterministic_program in
  Alcotest.(check (option int)) "baseline clean exit" (Some 0) b.exit_status;
  Alcotest.(check bool) "baseline produced output" true (String.length b.output > 0);
  Fixtures.check_verdict "output identical, written exactly once" Oracle.Clean
    ~reference:(Oracle.Baseline b) (Oracle.Protected r)

let test_output_identical_under_raft () =
  let b = run_baseline deterministic_program in
  let r = run_protected ~config:(raft_cfg ()) deterministic_program in
  Fixtures.check_verdict "RAFT output identical" Oracle.Clean
    ~reference:(Oracle.Baseline b) (Oracle.Protected r);
  Alcotest.(check (option int)) "clean exit" (Some 0) r.exit_status;
  Alcotest.(check int) "RAFT does not slice" 0 r.stats.Parallaft.Stats.nr_slices;
  Alcotest.(check int) "RAFT never compares state" 0
    r.stats.Parallaft.Stats.segments_compared

let test_mmap_aslr_replay () =
  (* mmap churn folds the mapped (ASLR-randomized) address into program
     state; without the MAP_FIXED replay fix-up the checker would
     diverge from the main at the very first comparison. The address the
     baseline sees legitimately differs (fresh ASLR draws), so the check
     is main-vs-checker consistency, not output bytes. *)
  let program = mmap_program () in
  let r = run_protected program in
  check_clean r;
  Alcotest.(check bool) "syscalls were recorded" true
    (r.stats.Parallaft.Stats.syscalls_recorded > 20)

let test_nondet_rdtsc_replay () =
  let program =
    Workloads.Codegen.generate ~name:"tsc" ~seed:3L
      ~page_size:platform.Platform.page_size
      {
        Workloads.Codegen.pattern = Workloads.Codegen.Blocked { pages = 2 };
        alu_per_mem = 2;
        store_every = 0;
        outer_iters = 25;
        inner_iters = 30;
        io_every = 5;
        gettime_every = 0;
        rdtsc_every = 2;
        mmap_churn = false;
      }
  in
  let r = run_protected program in
  check_clean r;
  Alcotest.(check bool) "rdtsc was recorded" true
    (r.stats.Parallaft.Stats.nondet_recorded > 0)

let test_fault_injection_detected () =
  (* Flip a bit in the checksum register early in segment 0: the
     checksum is written to memory and stdout, so the corruption must
     surface as a detection (mismatch, exception, or timeout). *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.fault_plan =
        Some
          (Fault.checker_register ~segment:0 ~delay_instructions:50 ~reg:13 ~bit:7);
    }
  in
  let r = run_protected ~config program in
  match r.stats.Parallaft.Stats.fi_outcome with
  | Some o when Parallaft.Detection.is_detected o -> ()
  | Some Parallaft.Detection.Benign -> Alcotest.fail "checksum flip classified benign"
  | Some _ -> ()
  | None -> Alcotest.fail "injection did not fire"

let test_fault_injection_dead_register_benign () =
  (* r5 is unused by the stream generator after setup... use a register
     the generated code never reads: r14 (reserved, never written or
     read by this program). A flip there must be benign: registers are
     compared, so flip r14 in a segment where main's r14 is... the
     comparison includes all registers, so ANY register flip that
     survives to the segment end is detected. Benign therefore requires
     the flipped value to be overwritten before the segment ends. r10 is
     a scratch register rewritten constantly — flip it between uses. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.fault_plan =
        Some
          (Fault.checker_register ~segment:0 ~delay_instructions:57 ~reg:10 ~bit:3);
    }
  in
  let r = run_protected ~config program in
  match r.stats.Parallaft.Stats.fi_outcome with
  | Some Parallaft.Detection.Benign -> ()
  | Some o ->
    (* Depending on the exact injection point r10 may be live; accept a
       detection but require SOME classification. *)
    Alcotest.(check bool) "classified" true (Parallaft.Detection.is_detected o)
  | None -> Alcotest.fail "injection did not fire"

let test_fault_injection_timeout_or_exception () =
  (* Corrupt the inner loop counter (r11) high bit: the checker either
     loops far past the segment (timeout), segfaults, or miscompares —
     never silently passes. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.fault_plan =
        Some
          (Fault.checker_register ~segment:1 ~delay_instructions:99 ~reg:11 ~bit:30);
    }
  in
  let r = run_protected ~config program in
  match r.stats.Parallaft.Stats.fi_outcome with
  | Some o when Parallaft.Detection.is_detected o -> ()
  | Some Parallaft.Detection.Benign ->
    Alcotest.fail "loop-counter corruption classified benign"
  | Some _ -> ()
  | None -> Alcotest.fail "injection did not fire"

let test_all_register_flips_classified () =
  (* Sweep registers: every injection that fires is classified, and no
     run ends with corrupted output escaping undetected. The reference
     output comes from a clean protected run with the same seed (the
     baseline would differ in its gettime values). *)
  let program = busy_program ~outer:12 () in
  let baseline = run_protected ~seed:77L program in
  for reg = 6 to 13 do
    let config =
      {
        (parallaft_cfg ~slice_period:20_000 ()) with
        Parallaft.Config.fault_plan =
          Some
            (Fault.checker_register ~segment:0
               ~delay_instructions:(40 + reg) ~reg ~bit:(reg mod 8));
      }
    in
    let r = run_protected ~seed:77L ~config program in
    match r.stats.Parallaft.Stats.fi_outcome with
    | Some Parallaft.Detection.Benign ->
      (* Benign means the run finished with the correct output. *)
      Fixtures.check_verdict
        (Printf.sprintf "r%d benign implies correct output" reg)
        Oracle.Clean ~reference:(Oracle.Protected baseline) (Oracle.Protected r)
    | Some _ -> ()
    | None -> () (* checker finished before the injection; acceptable here *)
  done

let test_external_signal_replay () =
  (* Deliver SIGUSR1 mid-run: the handler bumps a counter the program
     spins on. Replay must deliver the signal to the checker at the same
     execution point, or comparison would fail. *)
  let program = Workloads.Micro.sigusr1_spin ~handled:3 in
  let config = parallaft_cfg ~slice_period:50_000 () in
  let r =
    Parallaft.Runtime.run_protected ~platform ~config ~program
      ~before_run:(fun eng coord ->
        Sim_os.Engine.add_tick eng ~every_ns:150_000 (fun eng ->
            let main = Parallaft.Coordinator.main_pid coord in
            match Sim_os.Engine.state eng main with
            | Sim_os.Engine.Exited _ -> ()
            | Sim_os.Engine.Runnable | Sim_os.Engine.Stopped ->
              Sim_os.Engine.send_signal eng main Sim_os.Sig_num.sigusr1))
      ()
  in
  check_clean r;
  Alcotest.(check bool) "signals recorded" true
    (r.stats.Parallaft.Stats.signals_recorded >= 3)

let test_checkers_run_on_little_cores () =
  let program = busy_program () in
  let r = run_protected program in
  check_clean r;
  Alcotest.(check bool) "some checker work on little cores" true
    (r.stats.Parallaft.Stats.checker_little_ns > 0.0)

let test_raft_checker_on_big_core () =
  let program = busy_program () in
  let r = run_protected ~config:(raft_cfg ()) program in
  Alcotest.(check bool) "all checker work on big cores" true
    (r.stats.Parallaft.Stats.checker_little_ns = 0.0
    && r.stats.Parallaft.Stats.checker_big_ns > 0.0)

let test_determinism_of_protected_runs () =
  let program = busy_program () in
  let r1 = run_protected ~seed:5L program in
  let r2 = run_protected ~seed:5L program in
  Alcotest.(check int) "same wall time" r1.wall_ns r2.wall_ns;
  Fixtures.check_verdict "same output" Oracle.Clean
    ~reference:(Oracle.Protected r1) (Oracle.Protected r2);
  Alcotest.(check int) "same segment count"
    r1.stats.Parallaft.Stats.segments_total r2.stats.Parallaft.Stats.segments_total

let test_slice_period_controls_segments () =
  let program = busy_program () in
  let segs period =
    let r = run_protected ~config:(parallaft_cfg ~slice_period:period ()) program in
    check_clean r;
    r.stats.Parallaft.Stats.segments_total
  in
  let short = segs 10_000 and long = segs 80_000 in
  Alcotest.(check bool)
    (Printf.sprintf "shorter period => more segments (%d vs %d)" short long)
    true (short > long)

(* All three backends run clean, and full comparison hashes more than
   either tracker: the modelled runtime hashes every page it compares,
   shared or not (the §4.4 ablation's point). *)
let test_dirty_backends_equivalent () =
  let program = busy_program () in
  let hashed backend =
    let config =
      { (parallaft_cfg ~slice_period:20_000 ()) with Parallaft.Config.dirty_backend = backend }
    in
    let r = run_protected ~config program in
    check_clean r;
    r.stats.Parallaft.Stats.bytes_hashed
  in
  let soft = hashed Parallaft.Config.Soft_dirty in
  let map_count = hashed Parallaft.Config.Map_count in
  let full = hashed Parallaft.Config.Full_compare in
  Alcotest.(check bool)
    (Printf.sprintf "full comparison hashes more (%d vs %d, %d)" full soft map_count)
    true
    (full > soft && full > map_count)

let test_max_live_segments_respected () =
  let program = busy_program ~outer:40 () in
  let config =
    { (parallaft_cfg ~slice_period:8_000 ()) with Parallaft.Config.max_live_segments = 2 }
  in
  let r = run_protected ~config program in
  check_clean r

let test_migration_disabled_still_correct () =
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:10_000 ()) with
      Parallaft.Config.migration = false;
      dvfs_pacing = false;
    }
  in
  let r = run_protected ~config program in
  check_clean r;
  Alcotest.(check int) "no migrations" 0 r.stats.Parallaft.Stats.migrations

let test_getpid_stress_slowdown () =
  (* Tracing makes syscalls dramatically slower (§5.7). The testing
     platform's tracer latency is mild, but the slowdown must still be
     clearly visible. *)
  let program = Workloads.Micro.getpid_loop ~iters:2000 in
  let b = run_baseline program in
  let r = run_protected ~config:(raft_cfg ()) program in
  Alcotest.(check bool)
    (Printf.sprintf "protected run much slower (%.0f vs %d ns)"
       r.stats.Parallaft.Stats.main_wall_ns b.wall_ns)
    true
    (r.stats.Parallaft.Stats.main_wall_ns > 1.3 *. float_of_int b.wall_ns)

let test_devzero_reader_replay () =
  let program = Workloads.Micro.devzero_reader ~block_bytes:8192 ~blocks:20 in
  let r = run_protected program in
  check_clean r

(* Property: ANY generated workload runs under Parallaft without false
   positives -- record/replay reproduces arbitrary combinations of memory
   patterns, store rates and syscall mixes. *)
let gen_spec =
  QCheck.Gen.(
    let* pat_kind = 0 -- 2 in
    let* pages = 2 -- 10 in
    let* alu = 1 -- 6 in
    let* store = 0 -- 4 in
    let* outer = 4 -- 15 in
    let* inner = 10 -- 50 in
    let* io = 2 -- 5 in
    let* gettime = 0 -- 6 in
    let* mmap = bool in
    let pattern =
      match pat_kind with
      | 0 -> Workloads.Codegen.Chase { pages = max 2 pages; hot_pages = 3; cold_every = 2 }
      | 1 ->
        Workloads.Codegen.Stream
          { pages; write_frac_pct = store * 25; accesses_per_page = 4 }
      | _ -> Workloads.Codegen.Blocked { pages }
    in
    return
      {
        Workloads.Codegen.pattern;
        alu_per_mem = alu;
        store_every = store;
        outer_iters = outer;
        inner_iters = inner;
        io_every = io;
        gettime_every = gettime;
        rdtsc_every = 0;
        mmap_churn = mmap;
      })

let qcheck_random_workloads_no_false_positives =
  QCheck.Test.make ~name:"random workloads protected without false positives"
    ~count:25
    (QCheck.make ~print:(fun _ -> "<spec>") QCheck.Gen.(pair gen_spec (0 -- 1000)))
    (fun (spec, seed) ->
      let program =
        Workloads.Codegen.generate ~name:"prop" ~seed:(Int64.of_int (seed + 1))
          ~page_size:platform.Platform.page_size spec
      in
      let r = run_protected ~config:(parallaft_cfg ~slice_period:15_000 ()) program in
      r.Parallaft.Runtime.detections = [] && r.Parallaft.Runtime.exit_status = Some 0)

let test_recovery_rolls_back_and_completes () =
  (* EXTENSION (Table 2 future work): with recovery enabled, a detected
     fault rolls the main back to the last verified checkpoint and the
     run completes instead of terminating. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.recovery = true;
      fault_plan =
        Some
          (Fault.checker_register ~segment:1 ~delay_instructions:60 ~reg:13 ~bit:6);
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "fault was detected" true
    (List.exists
       (fun (_, o) -> Parallaft.Detection.is_detected o)
       r.detections);
  Alcotest.(check int) "exactly one rollback" 1
    r.stats.Parallaft.Stats.recoveries;
  Alcotest.(check bool) "run not aborted" false r.aborted;
  Alcotest.(check (option int)) "completed cleanly after recovery" (Some 0)
    r.exit_status

let test_recovery_disabled_aborts () =
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.fault_plan =
        Some
          (Fault.checker_register ~segment:1 ~delay_instructions:60 ~reg:13 ~bit:6);
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "aborted on detection" true r.aborted;
  Alcotest.(check int) "no rollbacks" 0 r.stats.Parallaft.Stats.recoveries

let test_recovery_first_segment () =
  (* A fault in segment 0 recovers via the retained initial state. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.recovery = true;
      fault_plan =
        Some
          (Fault.checker_register ~segment:0 ~delay_instructions:40 ~reg:13 ~bit:3);
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "recovered" true (r.stats.Parallaft.Stats.recoveries >= 1);
  Alcotest.(check (option int)) "completed" (Some 0) r.exit_status

(* {2 Hardened fault response (DESIGN.md §13): re-check, watchdog,
   hard faults, rollback exactness} *)

let test_transient_recheck_no_rollback () =
  (* A checker-register flip with the re-check extension on: the failed
     check re-dispatches onto the pristine spare, which (un-faulted)
     passes, so the failure resolves as a transient checker fault — no
     rollback, no abort, clean completion. *)
  (* Time-free workload: the re-dispatch shifts wall-clock timing for
     the rest of the run, which would feed a gettime-using workload's
     output. *)
  let config fault_plan =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.recheck_on_mismatch = true;
      recovery = true;
      fault_plan;
    }
  in
  let clean = run_protected ~config:(config None) deterministic_program in
  let r =
    run_protected
      ~config:
        (config
           (Some
              (Fault.checker_register ~segment:1 ~delay_instructions:60 ~reg:13
                 ~bit:6)))
      deterministic_program
  in
  Alcotest.(check bool) "re-check dispatched" true
    (r.stats.Parallaft.Stats.rechecks >= 1);
  Alcotest.(check bool) "resolved transient" true
    (r.stats.Parallaft.Stats.transient_faults >= 1);
  Alcotest.(check (option int)) "clean exit" (Some 0) r.exit_status;
  Fixtures.check_verdict "no rollback, output untouched" Oracle.Clean
    ~reference:(Oracle.Protected clean) (Oracle.Protected r);
  (match r.stats.Parallaft.Stats.fi_outcome with
  | Some (Parallaft.Detection.Transient_checker_fault _) -> ()
  | o ->
    Alcotest.failf "expected transient classification, got %s"
      (match o with
      | Some o -> Parallaft.Detection.outcome_to_string o
      | None -> "none"));
  (* Transients are logged but are not detections charged to the main. *)
  List.iter
    (fun (_, o) ->
      Alcotest.(check bool)
        (Parallaft.Detection.outcome_to_string o ^ " not a detection")
        false
        (Parallaft.Detection.is_detected o))
    r.detections

let test_runtime_kill_caught_by_watchdog () =
  (* The checker itself is killed mid-check (a fault in the FT
     machinery). No spare, no recovery: the watchdog must notice the
     dead checker and fail the run instead of hanging it. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.fault_plan =
        Some
          {
            Fault.segment = 1;
            delay_instructions = 50;
            target = Fault.Runtime_fault Fault.Kill;
            repeat = false;
          };
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "watchdog responded" true
    (r.stats.Parallaft.Stats.watchdog_kills >= 1);
  Alcotest.(check bool) "aborted" true r.aborted;
  Alcotest.(check bool) "injection fired" true r.stats.Parallaft.Stats.fi_fired;
  match r.stats.Parallaft.Stats.fi_outcome with
  | Some o ->
    Alcotest.(check bool) "classified as detected" true
      (Parallaft.Detection.is_detected o)
  | None -> Alcotest.fail "runtime fault not classified"

let test_runtime_stall_recheck_recovers () =
  (* The checker stalls while holding a core: the instruction-budget
     timeout never fires (it needs the checker to execute), so only the
     watchdog's progress budget catches it. With a spare available the
     check re-dispatches and the run completes without rollback. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.recheck_on_mismatch = true;
      watchdog_stall_ns = 3_000_000;
      fault_plan =
        Some
          {
            Fault.segment = 1;
            delay_instructions = 50;
            target = Fault.Runtime_fault Fault.Stall;
            repeat = false;
          };
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "watchdog killed the stalled checker" true
    (r.stats.Parallaft.Stats.watchdog_kills >= 1);
  Alcotest.(check bool) "re-check resolved it" true
    (r.stats.Parallaft.Stats.transient_faults >= 1);
  Alcotest.(check int) "no rollback" 0 r.stats.Parallaft.Stats.recoveries;
  Alcotest.(check bool) "not aborted" false r.aborted;
  Alcotest.(check (option int)) "clean exit" (Some 0) r.exit_status

let test_hard_fault_aborts_early () =
  (* A persistent (stuck-at) checker fault: re-execution after the
     rollback reproduces the detection before any new segment verifies.
     The classifier must call it a hard fault and abort after ONE wasted
     rollback instead of burning the whole max_recoveries budget. *)
  let program = busy_program () in
  let config =
    {
      (parallaft_cfg ~slice_period:20_000 ()) with
      Parallaft.Config.recovery = true;
      fault_plan =
        Some
          {
            Fault.segment = 1;
            delay_instructions = 60;
            target = Fault.Checker_register { reg = 13; bit = 6 };
            repeat = true;
          };
    }
  in
  let r = run_protected ~config program in
  Alcotest.(check bool) "hard fault classified" true
    (r.stats.Parallaft.Stats.hard_faults >= 1);
  Alcotest.(check bool) "aborted" true r.aborted;
  Alcotest.(check int) "single rollback burned" 1
    r.stats.Parallaft.Stats.recoveries;
  Alcotest.(check bool) "hard fault in the detection log" true
    (List.exists
       (fun (_, o) ->
         match o with Parallaft.Detection.Hard_fault _ -> true | _ -> false)
       r.detections)

(* Property (rollback exactness): for ANY main-side fault that the
   pipeline detects and recovers from, the final registers and memory
   are byte-identical to the fault-free run's — recovery restores true
   state, and anything benign was genuinely overwritten. The workload is
   time-free (no gettime/rdtsc) so its final state is a pure function of
   the program. *)
let gen_main_fault_case =
  QCheck.Gen.(
    let* seg = 0 -- 2 in
    let* delay = 30 -- 120 in
    let* reg = 6 -- 13 in
    let* bit = 0 -- 30 in
    let* mem = bool in
    let* page = 0 -- 10 in
    let* wl_seed = 0 -- 300 in
    let target =
      if mem then Fault.Main_memory_page { page_index = page; bit }
      else Fault.Main_register { reg; bit }
    in
    return
      ( { Fault.segment = seg; delay_instructions = delay; target;
          repeat = false },
        wl_seed ))

let print_main_fault_case (plan, wl_seed) =
  Printf.sprintf "{%s; wl_seed=%d}" (Fault.to_string plan) wl_seed

let qcheck_main_fault_rollback_exact =
  QCheck.Test.make
    ~name:"main faults: recovered or benign runs end in the fault-free state"
    ~count:15
    (QCheck.make ~print:print_main_fault_case gen_main_fault_case)
    (fun (plan, wl_seed) ->
      let program =
        Workloads.Codegen.generate ~name:"exact"
          ~seed:(Int64.of_int (wl_seed + 1))
          ~page_size:platform.Platform.page_size
          {
            Workloads.Codegen.pattern =
              Workloads.Codegen.Chase
                { pages = 8; hot_pages = 3; cold_every = 2 };
            alu_per_mem = 3;
            store_every = 2;
            outer_iters = 8;
            inner_iters = 30;
            io_every = 3;
            gettime_every = 0;
            rdtsc_every = 0;
            mmap_churn = false;
          }
      in
      let config fault_plan =
        {
          (parallaft_cfg ~slice_period:15_000 ()) with
          Parallaft.Config.recovery = true;
          fault_plan;
        }
      in
      let reference = run_protected ~config:(config None) program in
      if reference.exit_status <> Some 0 then
        QCheck.Test.fail_report "reference run did not exit cleanly";
      let r = run_protected ~config:(config (Some plan)) program in
      match Oracle.judge ~reference:(Oracle.Protected reference) (Oracle.Protected r) with
      | Oracle.Clean | Oracle.Recovered | Oracle.Fail_stop -> true
      (* A run that ends without the reference's exit status exhausted
         its recovery budget: a loud failure, not an exactness
         violation. The property pins the final state, not the
         output. *)
      | Oracle.Violation (Oracle.Unsettled | Oracle.Exit_status | Oracle.Output) ->
        true
      | Oracle.Violation _ as v ->
        QCheck.Test.fail_reportf "%s (recoveries=%d, fi=%s)" (Oracle.to_string v)
          r.stats.Parallaft.Stats.recoveries
          (match r.stats.Parallaft.Stats.fi_outcome with
          | Some o -> Parallaft.Detection.outcome_to_string o
          | None -> "none"))

let test_file_backed_mmap_splits_segment () =
  (* A file-backed private mmap must be placed outside any segment
     (section 4.3.2): the runtime ends the segment before the call and
     starts a new one after it, so the checker inherits the mapping via
     fork instead of replaying the mmap. *)
  let src =
    {|
    .data 0x2000 "data.bin"
    .brk 0x10000
      li r0, 3          ; open("data.bin")
      li r1, 0x2000
      li r2, 8
      li r3, 0
      syscall
      mov r7, r0
      li r0, 6          ; mmap(0, 1 page, RW, PRIVATE (file-backed), fd)
      li r1, 0
      li r2, 4096
      li r3, 3
      li r4, 1
      mov r5, r7
      syscall
      load r9, r0, 0    ; read the file contents through the mapping
      li r10, 0x8000
      ; write the loaded value to stdout to pin correctness
      li r0, 5          ; brk for the io buffer
      li r1, 0x14000
      syscall
      li r11, 0x10000
      store r9, r11, 0
      li r0, 1
      li r1, 1
      li r2, 0x10000
      li r3, 8
      syscall
      li r0, 0
      li r1, 0
      syscall
    |}
  in
  let program = Isa.Asm.assemble_exn src in
  let payload = Bytes.create 8 in
  Bytes.set_int64_le payload 0 0x1122334455667788L;
  let r =
    Parallaft.Runtime.run_protected ~platform
      ~config:(parallaft_cfg ~slice_period:50_000 ())
      ~program
      ~before_run:(fun eng _coord ->
        Sim_os.File.add_file (Sim_os.Engine.fs eng) ~path:"data.bin" payload)
      ()
  in
  check_clean r;
  Alcotest.(check bool) "file contents flowed through the mapping" true
    (String.length r.output >= 8
    && Bytes.get_int64_le (Bytes.of_string r.output) 0 = 0x1122334455667788L);
  (* The split creates extra checkpoints beyond the periodic slices. *)
  Alcotest.(check bool) "mmap split produced extra segments" true
    (r.stats.Parallaft.Stats.segments_total
    > r.stats.Parallaft.Stats.nr_slices)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "parallaft"
    [
      ( "correctness",
        [
          tc "no false positives" `Quick test_no_false_positives;
          tc "output identical + exactly once" `Quick test_output_identical_and_once;
          tc "RAFT output identical" `Quick test_output_identical_under_raft;
          tc "mmap/ASLR replay" `Quick test_mmap_aslr_replay;
          tc "rdtsc record/replay" `Quick test_nondet_rdtsc_replay;
          tc "external signal replay" `Quick test_external_signal_replay;
          tc "/dev/zero read replay" `Quick test_devzero_reader_replay;
          tc "determinism" `Quick test_determinism_of_protected_runs;
        ] );
      ( "detection",
        [
          tc "checksum flip detected" `Quick test_fault_injection_detected;
          tc "scratch flip may be benign" `Quick test_fault_injection_dead_register_benign;
          tc "loop corruption detected" `Quick test_fault_injection_timeout_or_exception;
          tc "register sweep classified" `Slow test_all_register_flips_classified;
        ] );
      ( "recovery",
        [
          tc "rolls back and completes" `Quick test_recovery_rolls_back_and_completes;
          tc "disabled aborts" `Quick test_recovery_disabled_aborts;
          tc "first segment" `Quick test_recovery_first_segment;
          tc "file-backed mmap splits segment" `Quick test_file_backed_mmap_splits_segment;
        ] );
      ( "hardening",
        [
          tc "transient re-check avoids rollback" `Quick
            test_transient_recheck_no_rollback;
          tc "runtime kill caught by watchdog" `Quick
            test_runtime_kill_caught_by_watchdog;
          tc "runtime stall re-checked and recovered" `Quick
            test_runtime_stall_recheck_recovers;
          tc "persistent fault aborts as hard fault" `Quick
            test_hard_fault_aborts_early;
          QCheck_alcotest.to_alcotest qcheck_main_fault_rollback_exact;
        ] );
      ( "scheduling",
        [
          tc "checkers on little cores" `Quick test_checkers_run_on_little_cores;
          tc "RAFT on big cores" `Quick test_raft_checker_on_big_core;
          tc "slice period controls segments" `Quick test_slice_period_controls_segments;
          tc "max live segments" `Quick test_max_live_segments_respected;
          tc "migration off still correct" `Quick test_migration_disabled_still_correct;
        ] );
      ( "mechanisms",
        [
          tc "dirty backends equivalent" `Quick test_dirty_backends_equivalent;
          QCheck_alcotest.to_alcotest qcheck_random_workloads_no_false_positives;
          tc "getpid stress slowdown" `Quick test_getpid_stress_slowdown;
        ] );
    ]
