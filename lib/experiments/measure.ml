type mode =
  | Baseline
  | Protected of Parallaft.Config.t

type metrics = {
  wall_ns : float;
  main_wall_ns : float;
  main_user_ns : float;
  main_sys_ns : float;
  energy_j : float;
  mean_pss_bytes : float;
  detections : int;
  segments : int;
  migrations : int;
  big_core_work_fraction : float;
  cow_copies : int;
  runtime_work_ns : float;
  bytes_hashed : int;
  outputs_ok : bool;
}

(* The paper samples PSS every 0.5 s; at the 1e-4 cycle scale that is
   50 us of simulated time. *)
let pss_sample_period_ns = 50_000

let zero =
  {
    wall_ns = 0.0;
    main_wall_ns = 0.0;
    main_user_ns = 0.0;
    main_sys_ns = 0.0;
    energy_j = 0.0;
    mean_pss_bytes = 0.0;
    detections = 0;
    segments = 0;
    migrations = 0;
    big_core_work_fraction = 0.0;
    cow_copies = 0;
    runtime_work_ns = 0.0;
    bytes_hashed = 0;
    outputs_ok = true;
  }

(* Weighted (by wall time) combination for multi-input benchmarks. *)
let combine a b =
  let total_wall = a.wall_ns +. b.wall_ns in
  let wavg va vb =
    if total_wall <= 0.0 then 0.0
    else ((va *. a.wall_ns) +. (vb *. b.wall_ns)) /. total_wall
  in
  {
    wall_ns = total_wall;
    main_wall_ns = a.main_wall_ns +. b.main_wall_ns;
    main_user_ns = a.main_user_ns +. b.main_user_ns;
    main_sys_ns = a.main_sys_ns +. b.main_sys_ns;
    energy_j = a.energy_j +. b.energy_j;
    mean_pss_bytes = wavg a.mean_pss_bytes b.mean_pss_bytes;
    detections = a.detections + b.detections;
    segments = a.segments + b.segments;
    migrations = a.migrations + b.migrations;
    big_core_work_fraction = wavg a.big_core_work_fraction b.big_core_work_fraction;
    cow_copies = a.cow_copies + b.cow_copies;
    runtime_work_ns = a.runtime_work_ns +. b.runtime_work_ns;
    bytes_hashed = a.bytes_hashed + b.bytes_hashed;
    outputs_ok = a.outputs_ok && b.outputs_ok;
  }

let run_program ?(seed = 42L) ?(on_start = fun _ _ -> ()) ~platform ~mode program =
  let pss_sum = ref 0.0 and pss_samples = ref 0 in
  (* One sampler over [pids ()]; exited processes hold no PSS, so zero
     means everything has exited: the run is over. *)
  let start eng main pids =
    on_start eng main;
    Sim_os.Engine.add_tick eng ~every_ns:pss_sample_period_ns (fun eng ->
        let pss = Sim_os.Engine.pss_bytes eng (pids ()) in
        if pss > 0 then begin
          pss_sum := !pss_sum +. float_of_int pss;
          incr pss_samples
        end)
  in
  let mean_pss () =
    if !pss_samples = 0 then 0.0 else !pss_sum /. float_of_int !pss_samples
  in
  match mode with
  | Baseline ->
    let b =
      Parallaft.Runtime.run_baseline ~seed ~platform ~program
        ~before_run:(fun eng pid -> start eng pid (fun () -> [ pid ]))
        ()
    in
    {
      zero with
      wall_ns = float_of_int b.Parallaft.Runtime.wall_ns;
      main_wall_ns = float_of_int b.Parallaft.Runtime.wall_ns;
      main_user_ns = b.Parallaft.Runtime.user_ns;
      main_sys_ns = b.Parallaft.Runtime.sys_ns;
      energy_j = b.Parallaft.Runtime.energy_j;
      mean_pss_bytes = mean_pss ();
      outputs_ok = b.Parallaft.Runtime.exit_status = Some 0;
    }
  | Protected config ->
    let r =
      Parallaft.Runtime.run_protected ~seed ~platform ~config ~program
        ~before_run:(fun eng coord ->
          start eng (Parallaft.Coordinator.main_pid coord) (fun () ->
              Parallaft.Coordinator.live_pids coord))
        ()
    in
    {
      wall_ns = float_of_int r.Parallaft.Runtime.wall_ns;
      main_wall_ns = r.Parallaft.Runtime.stats.Parallaft.Stats.main_wall_ns;
      main_user_ns = r.Parallaft.Runtime.stats.Parallaft.Stats.main_user_ns;
      main_sys_ns = r.Parallaft.Runtime.stats.Parallaft.Stats.main_sys_ns;
      energy_j = r.Parallaft.Runtime.energy_j;
      mean_pss_bytes = mean_pss ();
      detections = List.length r.Parallaft.Runtime.detections;
      segments = r.Parallaft.Runtime.stats.Parallaft.Stats.segments_total;
      migrations = r.Parallaft.Runtime.stats.Parallaft.Stats.migrations;
      big_core_work_fraction =
        Parallaft.Stats.big_core_work_fraction r.Parallaft.Runtime.stats;
      cow_copies = r.Parallaft.Runtime.cow_copies;
      runtime_work_ns = r.Parallaft.Runtime.runtime_work_ns;
      bytes_hashed = r.Parallaft.Runtime.stats.Parallaft.Stats.bytes_hashed;
      outputs_ok = r.Parallaft.Runtime.exit_status = Some 0;
    }

let run_benchmark ?(seed = 42L) ~platform ~mode ~scale bench =
  let programs =
    Workloads.Spec.programs bench ~page_size:platform.Platform.page_size ~scale
  in
  List.fold_left
    (fun (i, acc) program ->
      let m =
        run_program ~seed:(Int64.add seed (Int64.of_int i)) ~platform ~mode program
      in
      (i + 1, combine acc m))
    (0, zero) programs
  |> snd

let overhead_pct ~baseline ~measured =
  Util.Stats.percentage_overhead ~baseline:baseline.wall_ns ~measured:measured.wall_ns

type breakdown = {
  fork_cow : float;
  contention : float;
  sync : float;
  runtime_work : float;
  total : float;
}

(* §5.2.1, unclamped: runtime work is what the other three leave of the
   total, so the four always sum to it. *)
let breakdown ~baseline ~measured =
  let pct x = 100.0 *. x /. baseline.wall_ns in
  let total = overhead_pct ~baseline ~measured in
  let fork_cow = pct (measured.main_sys_ns -. baseline.main_sys_ns) in
  let contention = pct (measured.main_user_ns -. baseline.main_user_ns) in
  let sync = pct (measured.wall_ns -. measured.main_wall_ns) in
  { fork_cow; contention; sync; runtime_work = total -. fork_cow -. contention -. sync; total }
