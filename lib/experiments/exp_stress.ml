(* Section 5.7: syscall and signal handling overhead, measured at the
   per-event scale. The benchmark sweep uses per-event tracer costs
   scaled down with the 1e-4 cycle scale; per-event stress ratios are a
   property of single events, so this experiment restores the real-scale
   ptrace stop cost (~4.4 us per stop). *)

let stress_platform =
  {
    Platform.apple_m2 with
    Platform.tracer_stop_ns = 4400.0;
    syscall_record_ns_per_byte = 0.16;
  }

(* The protected main's wall time over the baseline's. *)
let slowdown ?on_start program =
  let run mode =
    Measure.run_program ?on_start ~platform:stress_platform ~mode program
  in
  let baseline = run Measure.Baseline in
  let config =
    Parallaft.Config.parallaft ~platform:stress_platform ~slice_period:2_000_000 ()
  in
  let protected = run (Measure.Protected config) in
  protected.Measure.main_wall_ns /. Float.max 1.0 baseline.Measure.wall_ns

(* The burst must land after the program has registered its handler
   (a pre-run burst would hit the default action and kill it), so it is
   sent on the first 25 us tick. *)
let burst_at_first_tick n eng pid =
  let sent = ref false in
  Sim_os.Engine.add_tick eng ~every_ns:25_000 (fun eng ->
      if not !sent then begin
        sent := true;
        for _ = 1 to n do
          Sim_os.Engine.send_signal eng pid Sim_os.Sig_num.sigusr1
        done
      end)

let measure () : Paper.stress =
  let getpid = slowdown (Workloads.Micro.getpid_loop ~iters:4000) in
  let devzero =
    slowdown (Workloads.Micro.devzero_reader ~block_bytes:(1 lsl 20) ~blocks:24)
  in
  let n_signals = 220 in
  let sigusr1 =
    slowdown ~on_start:(burst_at_first_tick n_signals)
      (Workloads.Micro.sigusr1_spin ~handled:n_signals)
  in
  { getpid; devzero; sigusr1 }
