(* Checker-backend evaluation (DESIGN.md §18): a deferred sanity check
   and two questions. test/dune runs it under PARALLAFT_INVARIANTS=1,
   so Run_ctx.check_invariants sweeps the segments' exactly-once ledger
   after every event, and diffs its stdout against a golden. The run
   oracle (Oracle) judges every run, and a verdict a leg does not expect
   raises: the experiment is a correctness gate that prints tables.

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

let staleness_table () =
  Printf.printf
    "Staleness vs recovery cost: deferred backend, batch 2, recovery on,\n\
     one main-memory fault at segment 6 (page 6 bit 6, +50 insns).\n\n";
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
  Util.Table.print
    ~header:
      [
        "max_lag";
        "clean wall";
        "faulted wall";
        "rollback cost";
        "re-executed";
        "dup output";
        "recoveries";
        "max lag seen";
      ]
    (List.map
       (fun max_lag ->
         let clean = run_cfg (cfg ~max_lag ~fault_plan:None) in
         let faulted = run_cfg (cfg ~max_lag ~fault_plan:fault) in
         let cs = clean.P.Runtime.stats and fs = faulted.P.Runtime.stats in
         (* A rollback re-emits externalized writes: the oracle compares
            no output after one, and "dup output" counts the bytes. *)
         expect "the staleness fault" Oracle.Recovered
           (Oracle.judge ~reference:(Oracle.Protected clean)
              (Oracle.Protected faulted));
         [
           string_of_int max_lag;
           Printf.sprintf "%.3f ms"
             (float_of_int clean.P.Runtime.wall_ns /. 1e6);
           Printf.sprintf "%.3f ms"
             (float_of_int faulted.P.Runtime.wall_ns /. 1e6);
           Printf.sprintf "%.3f ms"
             (float_of_int
                (faulted.P.Runtime.wall_ns - clean.P.Runtime.wall_ns)
             /. 1e6);
           string_of_int
             (fs.P.Stats.segments_total - cs.P.Stats.segments_total);
           Printf.sprintf "%d B"
             (String.length faulted.P.Runtime.output
             - String.length clean.P.Runtime.output);
           string_of_int fs.P.Stats.recoveries;
           string_of_int fs.P.Stats.backend.P.Stats.b_max_lag;
         ])
       [ 1; 2; 4; 8 ])

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
  let b = r.P.Runtime.stats.P.Stats.backend in
  let total = r.P.Runtime.stats.P.Stats.segments_total in
  expect "the deferred run" Oracle.Clean
    (Oracle.judge ~reference (Oracle.Protected r));
  if b.P.Stats.b_batches < 1 then
    failwith "exp_backends: the deferred run launched no batch";
  Printf.printf
    "Deferred sanity: batch 2, max_lag 4 — observables = inline, %d/%d \
     verified in %d batches (max lag %d), no leaked pids.\n"
    b.P.Stats.b_verified total b.P.Stats.b_batches b.P.Stats.b_max_lag

let chaos_campaign ~reference =
  Printf.printf
    "Chaos campaign: remote backend, 3 nodes, retry budget 6. Every row\n\
     is asserted exactly-once, sdc=0 vs the fault-free inline reference,\n\
     >=1 re-dispatch, and zero leaked pids — a failed assertion aborts\n\
     the experiment.\n\n";
  Util.Table.print
    ~header:
      [
        "intensity";
        "crash/stall/late/pre %";
        "verified";
        "redispatched";
        "expired";
        "stale";
        "wall";
      ]
    (List.map
       (fun (label, crash, stall, late, prelaunch, seed) ->
         let chaos =
           {
             P.Config.chaos_seed = seed;
             crash_pct = crash;
             stall_pct = stall;
             late_pct = late;
             prelaunch_pct = prelaunch;
             reboot_ns = 400_000;
             late_ns = 150_000;
           }
         in
         let config =
           {
             (base_cfg ()) with
             P.Config.backend =
               P.Config.remote_backend ~nodes:3 ~retries:6 ~chaos ();
             watchdog_stall_ns = 2_000_000;
           }
         in
         let r = run_cfg config in
         let b = r.P.Runtime.stats.P.Stats.backend in
         let total = r.P.Runtime.stats.P.Stats.segments_total in
         expect (label ^ " chaos") Oracle.Clean
           (Oracle.judge ~reference (Oracle.Protected r));
         if b.P.Stats.b_redispatched < 1 then
           failwith
             (Printf.sprintf
                "exp_backends: %s chaos never struck — tune the rates" label);
         [
           label;
           Printf.sprintf "%d/%d/%d/%d" crash stall late prelaunch;
           Printf.sprintf "%d/%d" b.P.Stats.b_verified total;
           string_of_int b.P.Stats.b_redispatched;
           string_of_int b.P.Stats.b_leases_expired;
           string_of_int b.P.Stats.b_stale_verdicts;
           Printf.sprintf "%.3f ms" (float_of_int r.P.Runtime.wall_ns /. 1e6);
         ])
       [
         ("light", 10, 5, 5, 5, 0x51A07L);
         ("medium", 25, 10, 10, 10, 0x51A08L);
         ("heavy", 40, 15, 15, 15, 0x51A09L);
       ])

let run () =
  let reference = inline_reference () in
  deferred_sanity ~reference;
  print_newline ();
  staleness_table ();
  print_newline ();
  chaos_campaign ~reference
