(* Bechamel microbenchmarks: one Test.make per paper table and figure,
   measuring the host-side cost of the mechanism that dominates that
   experiment (checkpoint forking for the overhead figures, state
   hashing for the comparator, execution-point replay for the sweeps,
   whole protected runs for the end-to-end tables, ...). These are the
   only mechanism-level host timings in the repository; the performance
   ledger that gates changes is ftbench (BENCHMARK.json, with its
   metrics defined in ftbench/METRICS.md).

   main.exe takes no argument and prints the ns/run table;
   PARALLAFT_QUICK=1 shrinks the sampling budget, as `make bench-smoke`
   runs it. The comparator's cold->warm accounting is asserted in
   test/test_core_units.ml. *)

open Bechamel
open Toolkit

let platform = Platform.apple_m2
let page_size = platform.Platform.page_size

(* --- fixtures -------------------------------------------------------- *)

let small_program =
  Workloads.Codegen.generate ~name:"bench" ~seed:7L ~page_size
    {
      Workloads.Codegen.pattern =
        Workloads.Codegen.Chase { pages = 32; hot_pages = 3; cold_every = 4 };
      alu_per_mem = 4;
      store_every = 3;
      outer_iters = 6;
      inner_iters = 120;
      io_every = 3;
      gettime_every = 0;
      rdtsc_every = 0;
      mmap_churn = false;
    }

let forked_aspace_pair () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(256 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  (aspace, child)

(* Reference/candidate CPUs over a forked 256-page working set.
   [touched] pages are COWed on {e both} sides with the {e same} values:
   frame identity is broken (the pages must be compared) but contents
   agree, so every compare verdict is Match. The untouched remainder
   still shares frames and exercises the identity short-circuit. *)
let comparator_fixture ~touched () =
  let alloc = Mem.Frame.allocator ~page_size in
  let ref_as = Mem.Address_space.create alloc in
  Mem.Address_space.map_range ref_as ~addr:0 ~len:(256 * page_size)
    Mem.Page_table.Read_write;
  for vpn = 0 to 255 do
    Mem.Address_space.store64 ref_as (vpn * page_size) (vpn + 1)
  done;
  let cand_as = Mem.Address_space.fork ref_as in
  for vpn = 0 to touched - 1 do
    Mem.Address_space.store64 ref_as (vpn * page_size) (vpn + 1000);
    Mem.Address_space.store64 cand_as (vpn * page_size) (vpn + 1000)
  done;
  let program = Isa.Asm.assemble_exn "halt" in
  let a =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace:ref_as ()
  in
  let b =
    Machine.Cpu.create ~rng:(Util.Rng.create ~seed:1L) ~program ~aspace:cand_as ()
  in
  (a, b)

let all_256_vpns = Array.init 256 (fun i -> i)

let compare_fixture ?cache (a, b) =
  Parallaft.Comparator.compare_states ?cache ~reference:a ~candidate:b
    ~dirty_vpns:all_256_vpns ()

let protected_run ?fault_plan config_of () =
  let config =
    match fault_plan with
    | None -> config_of ()
    | Some plan -> { (config_of ()) with Parallaft.Config.fault_plan = Some plan }
  in
  let r =
    Parallaft.Runtime.run_protected ~platform ~config ~program:small_program ()
  in
  assert (r.Parallaft.Runtime.exit_status <> None || r.Parallaft.Runtime.aborted)

let parallaft_cfg () = Parallaft.Config.parallaft ~platform ~slice_period:30_000 ()
let raft_cfg () = Parallaft.Config.raft ~platform ()

(* Interpreter-bound fixture: a hot load/alu/store loop run to halt on a
   bare CPU (no engine, no tracer), with the decoded-block cache on or
   off. The pair shows the cache's dispatch win on one hot loop; the
   ledger's measure of it is ftbench's machine.block_cache_speedup. *)
let interp_loop ~block_cache () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let program =
    Isa.Asm.assemble_exn ~name:"interp_loop"
      "li r1, 2000\n\
       li r2, 0\n\
       li r3, 0\n\
       l:\n\
       load r4, r2, 8\n\
       add r4, r4, r1\n\
       store r4, r2, 8\n\
       add r3, r3, 1\n\
       sub r1, r1, 1\n\
       bne r1, r2, l\n\
       halt"
  in
  let cpu =
    Machine.Cpu.create ~block_cache ~rng:(Util.Rng.create ~seed:11L) ~program
      ~aspace ()
  in
  let env =
    {
      Machine.Cpu.core_id = 0;
      read_tsc = (fun () -> 0);
      read_rand = (fun () -> 0);
      mem_access = (fun ~write:_ ~frame:_ -> 0);
      mem_access_cow = (fun ~frame:_ ~old_frame:_ -> 0);
      cow_extra_cycles = 0;
      mul_cycles = 3;
      div_cycles = 12;
    }
  in
  let res = Machine.Cpu.run cpu ~env ~max_cycles:max_int in
  assert (res.Machine.Cpu.stop = Machine.Cpu.Halted)

(* A representative recorded segment for the seglog writer bench: 64
   dirty pages in the mix the compressor sees in practice — a quarter
   all-zero, a quarter sparse (a few hot bytes), half dense
   pseudo-random — plus a short event list and a register snapshot. *)
let seglog_header () =
  let config : Seglog.Record.run_config =
    { mode_raft = false; slice_period = 3000; timeout_scale = 5.0;
      compare_states = true; dirty_backend = "soft_dirty"; hasher = "xxh64";
      seed = 7L; fault = None; recheck = false }
  in
  let config_digest =
    Seglog.Record.config_digest ~platform:platform.Platform.name ~page_size
      ~workload:"bench" config
  in
  { Seglog.Record.config_digest; platform = platform.Platform.name;
    page_size; workload = "bench" }

let seglog_segment_fixture () =
  let page i =
    match i mod 4 with
    | 0 -> Bytes.make page_size '\x00'
    | 1 ->
      let b = Bytes.make page_size '\x00' in
      for k = 0 to 7 do
        Bytes.set b (((i * 53) + (k * 97)) mod page_size) '\x5a'
      done;
      b
    | _ -> Bytes.init page_size (fun k -> Char.chr (((i * 131) + (k * 7)) land 0xff))
  in
  { Seglog.Record.id = 0;
    preamble = [];
    events =
      [ Seglog.Record.Sys
          { call = Sim_os.Syscall.Gettime; in_data = None; result = 123456;
            effects = [] };
        Seglog.Record.Nondet { insn = Isa.Insn.Rdtsc 3; value = 987654321 }
      ];
    end_point = { Seglog.Record.branches = 4096; pc = 17 };
    insn_delta = 20000;
    end_regs = Array.init 16 (fun r -> (r * 0x10001) - 3);
    pages = Array.init 64 (fun i -> (i, page i))
  }

(* --- one microbench per table/figure --------------------------------- *)

let tests =
  [
    (* Table 1: the end-to-end protected run (Parallaft row). *)
    Test.make ~name:"table1:protected_run_parallaft"
      (Staged.stage (fun () -> protected_run parallaft_cfg ()));
    (* Table 2: RAFT's whole-program streaming replay. *)
    Test.make ~name:"table2:protected_run_raft"
      (Staged.stage (fun () -> protected_run raft_cfg ()));
    (* Figure 5: the baseline the overheads are measured against. *)
    Test.make ~name:"fig5:baseline_run"
      (Staged.stage (fun () ->
           let b =
             Parallaft.Runtime.run_baseline ~platform ~program:small_program ()
           in
           assert (b.Parallaft.Runtime.exit_status = Some 0)));
    (* Figure 6 (fork+COW component): checkpoint fork + first-write storm. *)
    Test.make ~name:"fig6:cow_checkpoint_storm"
      (Staged.stage (fun () ->
           let parent, child = forked_aspace_pair () in
           for vpn = 0 to 255 do
             Mem.Address_space.store64 child (vpn * page_size) vpn
           done;
           ignore parent));
    (* Figure 7 (energy): a full engine quantum sweep with idle cores. *)
    Test.make ~name:"fig7:engine_quantum_stepping"
      (Staged.stage (fun () ->
           let eng = Sim_os.Engine.create ~platform ~seed:3L () in
           let _pid =
             Sim_os.Engine.spawn eng ~program:(Workloads.Micro.getpid_loop ~iters:50)
               ~core:0 ()
           in
           Sim_os.Engine.run ~max_ns:10_000_000 eng;
           assert (Sim_os.Engine.energy_j eng > 0.0)));
    (* Figure 8 (memory): PSS accounting over a COW-shared address space. *)
    Test.make ~name:"fig8:pss_accounting"
      (Staged.stage (fun () ->
           let parent, child = forked_aspace_pair () in
           let p = Mem.Page_table.pss_bytes (Mem.Address_space.page_table parent) in
           let c = Mem.Page_table.pss_bytes (Mem.Address_space.page_table child) in
           assert (p + c = 256 * page_size)));
    (* Figure 9 (slicing): dirty-page collection, the per-boundary scan. *)
    Test.make ~name:"fig9:dirty_page_collect"
      (Staged.stage (fun () ->
           let _, child = forked_aspace_pair () in
           for vpn = 0 to 127 do
             Mem.Address_space.store64 child (vpn * page_size) vpn
           done;
           let pt = Mem.Address_space.page_table child in
           assert (Array.length (Mem.Page_table.uniquely_mapped pt) >= 128)));
    (* §4.4 comparator, shared-frame-heavy working set: most vpns take
       the frame-identity short-circuit; the touched rest are compared
       chunk by chunk (modelled memo hits after the first run). *)
    Test.make ~name:"comparator:shared_heavy_warm_cache"
      (Staged.stage
         (let pair = comparator_fixture ~touched:16 () in
          let cache = Mem.Page_digest_cache.create ~capacity:4096 in
          fun () ->
            let verdict, _ = compare_fixture ~cache pair in
            assert (verdict = Parallaft.Comparator.Match)));
    (* §4.4 comparator, fully diverged working set with a cold memo:
       every page is compared and charged as hashed on both sides, every
       run. *)
    Test.make ~name:"comparator:fully_diverged_cold_cache"
      (Staged.stage
         (let pair = comparator_fixture ~touched:256 () in
          let cache = Mem.Page_digest_cache.create ~capacity:4096 in
          fun () ->
            Mem.Page_digest_cache.clear cache;
            let verdict, _ = compare_fixture ~cache pair in
            assert (verdict = Parallaft.Comparator.Match)));
    (* Figure 10 (fault injection): a protected run with an armed flip. *)
    Test.make ~name:"fig10:fault_injection_run"
      (Staged.stage
         (protected_run
            ~fault_plan:
              (Fault.checker_register ~segment:0 ~delay_instructions:500
                 ~reg:13 ~bit:4)
            parallaft_cfg));
    (* Section 5.7 (stress): the state comparator's page hashing. *)
    Test.make ~name:"stress:xxh64_hash_1MiB"
      (Staged.stage
         (let buf = Bytes.create (1 lsl 20) in
          fun () -> ignore (Ftr_hash.Xxh64.hash buf)));
    (* Section 5.8 (Intel): execution-point replay, arm-to-breakpoint. *)
    Test.make ~name:"intel:exec_point_replay"
      (Staged.stage (fun () ->
           let alloc = Mem.Frame.allocator ~page_size in
           let aspace = Mem.Address_space.create alloc in
           let program =
             Isa.Asm.assemble_exn
               "li r1, 5000\nli r2, 0\nl:\nsub r1, r1, 1\nbne r1, r2, l\nhalt"
           in
           let cpu =
             Machine.Cpu.create ~rng:(Util.Rng.create ~seed:9L) ~program ~aspace ()
           in
           let env =
             {
               Machine.Cpu.core_id = 0;
               read_tsc = (fun () -> 0);
               read_rand = (fun () -> 0);
               mem_access = (fun ~write:_ ~frame:_ -> 0);
               mem_access_cow = (fun ~frame:_ ~old_frame:_ -> 0);
               cow_extra_cycles = 0;
               mul_cycles = 3;
               div_cycles = 12;
             }
           in
           let replay =
             Parallaft.Exec_point.start_replay
               ~targets:[ { Parallaft.Exec_point.branches = 4000; pc = 2 } ]
               ~cpu
           in
           let rec drive () =
             let res = Machine.Cpu.run cpu ~env ~max_cycles:1_000_000 in
             match res.Machine.Cpu.stop with
             | Machine.Cpu.Counter_overflow_stop -> (
               match Parallaft.Exec_point.on_branch_overflow replay with
               | Parallaft.Exec_point.Reached _ -> ()
               | Parallaft.Exec_point.Keep_running -> drive ())
             | Machine.Cpu.Breakpoint_stop -> (
               match Parallaft.Exec_point.on_breakpoint replay with
               | Parallaft.Exec_point.Reached _ -> ()
               | Parallaft.Exec_point.Keep_running -> drive ())
             | _ -> assert false
           in
           drive ();
           assert (Machine.Cpu.branches cpu = 4000)));
    (* Interpreter core: the decoded-block cache's raison d'être. The
       same hot loop dispatched from cached blocks vs re-decoded and
       re-dispatched one instruction at a time. *)
    Test.make ~name:"interp:block_cache_on"
      (Staged.stage (fun () -> interp_loop ~block_cache:4096 ()));
    Test.make ~name:"interp:block_cache_off"
      (Staged.stage (fun () -> interp_loop ~block_cache:0 ()));
    (* DESIGN.md §17: persisting one representative recorded segment —
       64 dirty pages in the mix compression sees in practice (zero,
       sparse, dense), written twice so the second write exercises the
       xor-vs-parent delta alongside first-write raw/RLE. *)
    Test.make ~name:"seglog:write_throughput"
      (Staged.stage
         (let seg = seglog_segment_fixture () in
          fun () ->
            let writer = Seglog.Writer.create ~header:(seglog_header ()) in
            ignore (Seglog.Writer.segment writer seg);
            ignore (Seglog.Writer.segment writer seg)));
  ]

(* Runs every microbench and prints one ns/run row per benchmark. Quick
   mode shrinks the sampling budget: the estimates get noisier, but the
   whole table fits in a CI smoke leg, and every fixture still asserts
   its own result. *)
let run_microbenches ~quick =
  print_endline "Bechamel microbenchmarks (one per table/figure, host ns/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:(Some 10) ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-34s (no estimate)\n%!" name)
        results)
    tests

let quick_env () =
  match Sys.getenv_opt "PARALLAFT_QUICK" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (takes no argument)";
    exit 2
  end;
  run_microbenches ~quick:(quick_env ())
