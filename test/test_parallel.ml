(* The determinism contract of the parallel experiment runner
   (Util.Pool): every harness fan-out — the benchmark sweep, the
   fault-injection campaign, the slicing-period grid — must produce
   byte-identical results at -j 1 (the sequential path: no domain is
   spawned) and -j 4. Results are serialized with %h (exact float
   bits), so any divergence — a data race, an RNG draw whose order
   depends on scheduling, a shared scratch buffer — fails the diff.

   The suite also logs the quick-sweep wall time at both widths; on a
   multi-core host (where the paper's "fast as the hardware allows"
   goal is testable) it asserts the parallel sweep is actually
   faster. *)

let platform = Platform.apple_m2

(* Small enough to keep the suite quick, large enough that every
   benchmark slices into several segments. *)
let scale = 0.2

let metrics_to_string (m : Experiments.Measure.metrics) =
  Printf.sprintf "%h/%h/%h/%h/%h/%h/%d/%d/%d/%h/%d/%h/%b"
    m.Experiments.Measure.wall_ns m.Experiments.Measure.main_wall_ns
    m.Experiments.Measure.main_user_ns m.Experiments.Measure.main_sys_ns
    m.Experiments.Measure.energy_j m.Experiments.Measure.mean_pss_bytes
    m.Experiments.Measure.detections m.Experiments.Measure.segments
    m.Experiments.Measure.migrations
    m.Experiments.Measure.big_core_work_fraction
    m.Experiments.Measure.cow_copies m.Experiments.Measure.runtime_work_ns
    m.Experiments.Measure.outputs_ok

let row_to_string (r : Experiments.Suite.row) =
  Printf.sprintf "%s baseline=%s parallaft=%s raft=%s"
    r.Experiments.Suite.bench.Workloads.Spec.name
    (metrics_to_string r.Experiments.Suite.baseline)
    (metrics_to_string r.Experiments.Suite.parallaft)
    (metrics_to_string r.Experiments.Suite.raft)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let sweep_at jobs =
  Util.Pool.set_jobs jobs;
  let rows, dt =
    timed (fun () -> Experiments.Suite.sweep ~platform ~scale ~quick:true)
  in
  (String.concat "\n" (List.map row_to_string rows), dt)

let test_sweep_differential () =
  let s1, t1 = sweep_at 1 in
  let s4, t4 = sweep_at 4 in
  Util.Pool.set_jobs 1;
  Printf.printf "quick sweep wall time: -j 1 %.2fs, -j 4 %.2fs (%d cores)\n%!"
    t1 t4
    (Domain.recommended_domain_count ());
  Alcotest.(check string) "suite rows byte-identical at -j 1 and -j 4" s1 s4;
  (* Speedup is only observable with real cores to spread over. *)
  if Domain.recommended_domain_count () >= 4 then
    Alcotest.(check bool)
      (Printf.sprintf "-j 4 (%.2fs) measurably below -j 1 (%.2fs)" t4 t1)
      true (t4 < t1)
  else
    Printf.printf
      "(single/dual-core host: skipping the speedup assertion)\n%!"

let tally_to_string t =
  let module FI = Experiments.Exp_fault_injection in
  Printf.sprintf "detected=%d exception=%d timeout=%d benign=%d"
    (FI.count FI.Detected t) (FI.count FI.Exception t) (FI.count FI.Timeout t)
    (FI.count FI.Benign t)

let campaign_at jobs =
  Util.Pool.set_jobs jobs;
  let bench =
    match Workloads.Spec.find "429.mcf" with
    | Some b -> b
    | None -> Alcotest.fail "mcf missing"
  in
  let rng = Util.Rng.create ~seed:0xFA417L in
  let t =
    Experiments.Exp_fault_injection.campaign ~platform ~scale:0.05 ~trials:4
      ~rng bench
  in
  tally_to_string t

let test_fault_injection_differential () =
  let t1 = campaign_at 1 in
  let t4 = campaign_at 4 in
  Util.Pool.set_jobs 1;
  Alcotest.(check string) "campaign tally identical at -j 1 and -j 4" t1 t4;
  Alcotest.(check bool) "campaign landed injections" true
    (t1 <> "detected=0 exception=0 timeout=0 benign=0")

let grid_to_string grid =
  List.map
    (fun (name, points) ->
      name ^ ": "
      ^ String.concat " "
          (List.map
             (fun (label, (p : Experiments.Measure.breakdown)) ->
               Printf.sprintf "%s=%h/%h/%h" label p.fork_cow p.sync p.total)
             points))
    grid
  |> String.concat "\n"

let grid_at jobs =
  Util.Pool.set_jobs jobs;
  Experiments.Exp_sweep.grid
    ~periods:[ ("1B", 50_000); ("5B", 250_000) ]
    ~benchmarks:[ "458.sjeng" ] ~platform ~scale ()
  |> grid_to_string

let test_period_grid_differential () =
  let g1 = grid_at 1 in
  let g4 = grid_at 4 in
  Util.Pool.set_jobs 1;
  Alcotest.(check string) "period grid identical at -j 1 and -j 4" g1 g4

(* The decoded-block cache must be invisible end to end, not just at
   the CPU boundary: the whole quick sweep (baseline + parallaft + raft
   metrics rows), a fault-injection campaign tally, and each quick
   benchmark's protected run's Perfetto trace and metric dump must be
   byte-identical with the cache at its default capacity and
   force-disabled. The profiler stays off here: its "decoded" column is
   interpreter-internal by design and the one number the cache setting
   is allowed to change. *)
let with_block_cache capacity f =
  let saved = Machine.Cpu.default_block_cache () in
  Machine.Cpu.set_default_block_cache capacity;
  Fun.protect
    ~finally:(fun () -> Machine.Cpu.set_default_block_cache saved)
    f

let sweep_with_cache capacity =
  with_block_cache capacity (fun () ->
      Util.Pool.set_jobs 1;
      Experiments.Suite.sweep ~platform ~scale:0.1 ~quick:true
      |> List.map row_to_string |> String.concat "\n")

(* One protected run of the benchmark's first input with a sink
   attached: its trace export and metric dump. *)
let observed_run ~block_cache bench =
  let program =
    List.hd
      (Workloads.Spec.programs bench ~page_size:platform.Platform.page_size
         ~scale:0.1)
  in
  let sink = Obs.Sink.create () in
  let config =
    {
      (Parallaft.Config.parallaft ~platform ()) with
      Parallaft.Config.block_cache;
      obs = Some sink;
    }
  in
  ignore (Parallaft.Runtime.run_protected ~platform ~config ~program ());
  ( Obs.Export.chrome_json sink.Obs.Sink.trace,
    Obs.Metrics.to_text sink.Obs.Sink.metrics )

let test_block_cache_differential () =
  Alcotest.(check string) "sweep rows byte-identical cache on/off"
    (sweep_with_cache 4096) (sweep_with_cache 0);
  List.iter
    (fun bench ->
      let name = bench.Workloads.Spec.name in
      let trace_on, metrics_on = observed_run ~block_cache:4096 bench in
      let trace_off, metrics_off = observed_run ~block_cache:0 bench in
      Alcotest.(check bool) (name ^ " run observed") true (metrics_on <> "");
      Alcotest.(check string) (name ^ " trace byte-identical cache on/off")
        trace_on trace_off;
      Alcotest.(check string) (name ^ " metric dump byte-identical cache on/off")
        metrics_on metrics_off)
    (Experiments.Suite.benchmarks ~quick:true);
  let tally_on = with_block_cache 4096 (fun () -> campaign_at 1) in
  let tally_off = with_block_cache 0 (fun () -> campaign_at 1) in
  Util.Pool.set_jobs 1;
  Alcotest.(check string) "fault campaign tally identical cache on/off"
    tally_on tally_off

let () =
  Obs.Log.set_quiet true;
  let tc = Alcotest.test_case in
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          tc "suite sweep -j1 = -j4" `Quick test_sweep_differential;
          tc "fault injection -j1 = -j4" `Quick test_fault_injection_differential;
          tc "period grid -j1 = -j4" `Quick test_period_grid_differential;
          tc "block cache on = off" `Quick test_block_cache_differential;
        ] );
    ]
