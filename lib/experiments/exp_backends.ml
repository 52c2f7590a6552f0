(* Checker-backend evaluation (DESIGN.md §18): a deferred sanity check
   and two questions. test/dune runs it under PARALLAFT_INVARIANTS=1,
   so Run_ctx.check_invariants sweeps the segments' exactly-once ledger
   after every event, and diffs its stdout against a golden. The run
   oracle (Oracle) judges every run, and a verdict a leg does not expect
   raises before anything is printed: the experiment is a correctness
   gate whose runs Render tabulates.

   0. Deferred sanity. Small batches under a tight max_lag budget, so
      the recorder's boundary-hold backpressure engages: the run must
      be clean against the inline reference, in at least one batch.

   1. Staleness vs recovery cost. The deferred backend's max_lag budget
      bounds how many recorded-but-unverified segments may be
      outstanding — and therefore how stale the newest *verified*
      checkpoint can be when an error surfaces. A rollback lands on
      that checkpoint, so a larger budget buys launch amortization at
      the price of re-executing more segments per recovery. The table
      injects the same main-memory fault under each budget, which must
      recover against the fault-free run at that budget, and reports
      the marginal wall-clock and re-executed-segment cost.

   2. The chaos campaign. The remote backend at three fixed
      crash/stall/late/pre-launch intensities, each clean against the
      inline reference after at least one actual re-dispatch.

   Both legs run the deterministic chase program on the testing
   platform: the simulator is bit-reproducible there, so every row is a
   pure function of the printed configuration. *)

module P = Parallaft

let platform = Platform.testing

(* No time queries: output and final state are a pure function of the
   program, whatever the backend, schedule or rollback. The backend,
   fleet and runtime tests share it. *)
let program =
  Workloads.Codegen.generate ~name:"det" ~seed:21L
    ~page_size:platform.Platform.page_size
    {
      Workloads.Codegen.pattern =
        Workloads.Codegen.Chase { pages = 12; hot_pages = 4; cold_every = 2 };
      alu_per_mem = 3;
      store_every = 2;
      outer_iters = 30;
      inner_iters = 40;
      io_every = 3;
      gettime_every = 0;
      rdtsc_every = 0;
      mmap_churn = false;
    }

let base_cfg () = P.Config.parallaft ~platform ~slice_period:20_000 ()
let run_cfg config = P.Runtime.run_protected ~platform ~config ~program ()

let expect what want verdict =
  if verdict <> want then
    failwith
      (Printf.sprintf "exp_backends: %s: %s" what (Oracle.to_string verdict))

(* Per max_lag budget: the clean run and the faulted one, which must
   recover against it. *)
let staleness () =
  let fault =
    Some
      {
        Fault.segment = 6;
        delay_instructions = 50;
        target = Fault.Main_memory_page { page_index = 6; bit = 6 };
        repeat = false;
      }
  in
  let cfg ~max_lag ~fault_plan =
    {
      (base_cfg ()) with
      P.Config.backend = P.Config.deferred_backend ~batch:2 ~max_lag ();
      recovery = true;
      fault_plan;
    }
  in
  List.map
    (fun max_lag ->
      let clean = run_cfg (cfg ~max_lag ~fault_plan:None) in
      let faulted = run_cfg (cfg ~max_lag ~fault_plan:fault) in
      expect "the staleness fault" Oracle.Recovered
        (Oracle.judge ~reference:(Oracle.Protected clean) (Oracle.Protected faulted));
      (max_lag, clean, faulted))
    [ 1; 2; 4; 8 ]

(* The fault-free inline run every other backend must reproduce. *)
let inline_reference () =
  let inline = Oracle.Protected (run_cfg (base_cfg ())) in
  expect "the inline reference run" Oracle.Clean (Oracle.judge inline);
  inline

let deferred_sanity ~reference =
  let r =
    run_cfg
      {
        (base_cfg ()) with
        P.Config.backend = P.Config.deferred_backend ~batch:2 ~max_lag:4 ();
      }
  in
  expect "the deferred run" Oracle.Clean
    (Oracle.judge ~reference (Oracle.Protected r));
  if r.P.Runtime.stats.P.Stats.backend.P.Stats.b_batches < 1 then
    failwith "exp_backends: the deferred run launched no batch";
  r

(* Per intensity: its chaos rates and the run, clean against the inline
   reference after at least one re-dispatch. *)
let chaos_campaign ~reference =
  List.map
    (fun (label, crash_pct, stall_pct, late_pct, prelaunch_pct, chaos_seed) ->
      let chaos =
        {
          P.Config.chaos_seed;
          crash_pct;
          stall_pct;
          late_pct;
          prelaunch_pct;
          reboot_ns = 400_000;
          late_ns = 150_000;
        }
      in
      let config =
        {
          (base_cfg ()) with
          P.Config.backend = P.Config.remote_backend ~nodes:3 ~retries:6 ~chaos ();
          watchdog_stall_ns = 2_000_000;
        }
      in
      let r = run_cfg config in
      expect (label ^ " chaos") Oracle.Clean
        (Oracle.judge ~reference (Oracle.Protected r));
      if r.P.Runtime.stats.P.Stats.backend.P.Stats.b_redispatched < 1 then
        failwith
          (Printf.sprintf "exp_backends: %s chaos never struck — tune the rates"
             label);
      (label, chaos, r))
    [
      ("light", 10, 5, 5, 5, 0x51A07L);
      ("medium", 25, 10, 10, 10, 0x51A08L);
      ("heavy", 40, 15, 15, 15, 0x51A09L);
    ]

type t = {
  deferred : P.Runtime.report;  (** the sanity run *)
  staleness : (int * P.Runtime.report * P.Runtime.report) list;
      (** max_lag, clean run, faulted run *)
  chaos : (string * P.Config.chaos * P.Runtime.report) list;
      (** intensity, its rates, the run *)
}

let measure () =
  let reference = inline_reference () in
  let deferred = deferred_sanity ~reference in
  let staleness = staleness () in
  { deferred; staleness; chaos = chaos_campaign ~reference }
