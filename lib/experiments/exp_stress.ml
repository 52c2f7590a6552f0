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

let protected_main_wall ~platform ~config ~program ?before_run () =
  let r = Parallaft.Runtime.run_protected ~platform ~config ~program ?before_run () in
  r.Parallaft.Runtime.stats.Parallaft.Stats.main_wall_ns

let slowdown ~program ?before_baseline ?before_protected () =
  let platform = stress_platform in
  let b =
    Parallaft.Runtime.run_baseline ~platform ~program ?before_run:before_baseline ()
  in
  let config =
    Parallaft.Config.parallaft ~platform ~slice_period:2_000_000 ()
  in
  let wall =
    protected_main_wall ~platform ~config ~program ?before_run:before_protected ()
  in
  wall /. float_of_int (max 1 b.Parallaft.Runtime.wall_ns)

(* The burst must land after the program has registered its handler
   (a pre-run burst would hit the default action and kill it), so it is
   sent on the first 25 us tick. *)
let burst_at_first_tick eng pid n =
  let sent = ref false in
  Sim_os.Engine.add_tick eng ~every_ns:25_000 (fun eng ->
      if not !sent then begin
        sent := true;
        for _ = 1 to n do
          Sim_os.Engine.send_signal eng pid Sim_os.Sig_num.sigusr1
        done
      end)

let signal_burst n =
  ( (fun eng pid -> burst_at_first_tick eng pid n),
    fun eng coord -> burst_at_first_tick eng (Parallaft.Coordinator.main_pid coord) n )

let run () =
  let getpid =
    slowdown ~program:(Workloads.Micro.getpid_loop ~iters:4000) ()
  in
  let devzero =
    slowdown
      ~program:(Workloads.Micro.devzero_reader ~block_bytes:(1 lsl 20) ~blocks:24)
      ()
  in
  let n_signals = 220 in
  let before_b, before_p = signal_burst n_signals in
  let sigusr1 =
    slowdown
      ~program:(Workloads.Micro.sigusr1_spin ~handled:n_signals)
      ~before_baseline:before_b ~before_protected:before_p ()
  in
  Util.Table.print
    ~header:[ "stress test"; "slowdown"; "paper" ]
    (List.map
       (fun (test, measured, paper) ->
         [ test; Printf.sprintf "%.1fx" measured; Printf.sprintf "%.1fx" paper ])
       [
         ("getpid loop", getpid, Paper.stress.getpid);
         ("1 MiB /dev/zero reads", devzero, Paper.stress.devzero);
         ("SIGUSR1 storm", sigusr1, Paper.stress.sigusr1);
       ])
