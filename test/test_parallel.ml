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
  let obs = Obs.Sink.create () in
  (* Profiling on: the per-task profiles must merge back deterministically
     just like the trace and the metrics. *)
  Obs.Profile.set_enabled obs.Obs.Sink.profile true;
  let rows, dt =
    timed (fun () ->
        Experiments.Suite.sweep ~obs ~platform ~scale ~quick:true ())
  in
  let serialized = String.concat "\n" (List.map row_to_string rows) in
  (serialized, obs, dt)

let test_sweep_differential () =
  let s1, obs1, t1 = sweep_at 1 in
  let s4, obs4, t4 = sweep_at 4 in
  Util.Pool.set_jobs 1;
  Printf.printf "quick sweep wall time: -j 1 %.2fs, -j 4 %.2fs (%d cores)\n%!"
    t1 t4
    (Domain.recommended_domain_count ());
  Alcotest.(check string) "suite rows byte-identical at -j 1 and -j 4" s1 s4;
  (* The per-task sinks were merged in benchmark order, so the whole
     observability surface must match too: the Chrome trace export and
     the metric dump are byte-identical. *)
  Alcotest.(check string) "merged trace byte-identical"
    (Obs.Export.chrome_json obs1.Obs.Sink.trace)
    (Obs.Export.chrome_json obs4.Obs.Sink.trace);
  Alcotest.(check string) "merged metrics byte-identical"
    (Obs.Metrics.to_text obs1.Obs.Sink.metrics)
    (Obs.Metrics.to_text obs4.Obs.Sink.metrics);
  Alcotest.(check bool) "profile non-trivial" true
    (Obs.Profile.phases obs1.Obs.Sink.profile <> []);
  Alcotest.(check string) "merged profile breakdown byte-identical"
    (Obs.Profile.to_table obs1.Obs.Sink.profile ~wall_ns:1_000_000)
    (Obs.Profile.to_table obs4.Obs.Sink.profile ~wall_ns:1_000_000);
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
             (fun (label, (p : Experiments.Exp_sweep.point)) ->
               Printf.sprintf "%s=%h/%h/%h" label
                 p.Experiments.Exp_sweep.fork_cow p.Experiments.Exp_sweep.sync
                 p.Experiments.Exp_sweep.total)
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
   metrics rows), the merged Perfetto trace, the metric dump and a
   fault-injection campaign tally must be byte-identical with the cache
   at its default capacity and force-disabled. The profiler stays off
   here: its "decoded" column is interpreter-internal by design and the
   one number the cache setting is allowed to change. *)
let with_block_cache capacity f =
  let saved = Machine.Cpu.default_block_cache () in
  Machine.Cpu.set_default_block_cache capacity;
  Fun.protect
    ~finally:(fun () -> Machine.Cpu.set_default_block_cache saved)
    f

let sweep_with_cache capacity =
  with_block_cache capacity (fun () ->
      Util.Pool.set_jobs 1;
      let obs = Obs.Sink.create () in
      let rows =
        Experiments.Suite.sweep ~obs ~platform ~scale:0.1 ~quick:true ()
      in
      ( String.concat "\n" (List.map row_to_string rows),
        Obs.Export.chrome_json obs.Obs.Sink.trace,
        Obs.Metrics.to_text obs.Obs.Sink.metrics ))

let test_block_cache_differential () =
  let rows_on, trace_on, metrics_on = sweep_with_cache 4096 in
  let rows_off, trace_off, metrics_off = sweep_with_cache 0 in
  Alcotest.(check string) "sweep rows byte-identical cache on/off" rows_on
    rows_off;
  Alcotest.(check string) "merged trace byte-identical cache on/off" trace_on
    trace_off;
  Alcotest.(check string) "metric dump byte-identical cache on/off" metrics_on
    metrics_off;
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
