module E = Sim_os.Engine

type report = {
  stats : Stats.t;
  detections : (int * Detection.outcome) list;
  aborted : bool;
  exit_status : int option;
  output : string;
  wall_ns : int;
  energy_j : float;
  energy_breakdown : (string * float) list;
  runtime_work_ns : float;
  cow_copies : int;
  dram_accesses : int;
  live_at_end : int;
}

type baseline = {
  wall_ns : int;
  user_ns : float;
  sys_ns : float;
  energy_j : float;
  output : string;
  exit_status : int option;
  live_at_end : int;
}

let run_protected ?(seed = 42L) ?rng ?prng ?before_run ~platform ~config
    ~program () =
  Result.iter_error
    (fun why -> invalid_arg ("Runtime.run_protected: " ^ why))
    (Config.validate Config.Solo config);
  let eng =
    E.create ~block_cache:config.Config.block_cache ~platform ~seed ()
  in
  let seglog_out =
    Option.map
      (fun dir ->
        match Seglog_io.create ~dir ~cfg:config ~platform ~program ~seed with
        | Ok out -> out
        | Error why -> invalid_arg ("Runtime.run_protected: record-log: " ^ why))
      config.Config.record_log
  in
  let coord = Coordinator.create ?rng ?prng ?seglog:seglog_out eng config ~program in
  (match before_run with Some f -> f eng coord | None -> ());
  E.run ~max_ns:Config.max_sim_ns eng;
  let stats = Coordinator.stats coord in
  stats.Stats.all_wall_ns <- float_of_int (E.now_ns eng);
  (* Retire any phase scope still open at simulation end (e.g. the
     drain scope). *)
  E.phase_close_all eng;
  if config.Config.cpu_stats then
    stats.Stats.block_cache <- Some (E.block_cache_totals eng);
  (* Seal the persisted log: the manifest needs the final-state hash
     (when main exited) and the id list of every segment written. *)
  (match seglog_out with
  | None -> ()
  | Some out ->
    Seglog_io.finalize out ~final_state_hash:(Stats.final_state_hash stats);
    let ws = Seglog_io.stats out in
    stats.Stats.seglog <-
      Some
        {
          Stats.seglog_segments = ws.Seglog.Writer.segments;
          seglog_bytes = ws.Seglog.Writer.bytes_written + Seglog_io.manifest_bytes out;
          seglog_raw_page_bytes = ws.Seglog.Writer.raw_page_bytes;
          seglog_stored_page_bytes = ws.Seglog.Writer.stored_page_bytes;
        });
  (* The end-of-run step Fleet shares; every profile scope, drain
     included, is already closed above. *)
  Coordinator.finish coord;
  {
    stats;
    detections = Stats.detections_oldest_first stats;
    aborted = Coordinator.aborted coord;
    exit_status = E.exit_status eng (Coordinator.main_pid coord);
    output = E.output eng;
    wall_ns = E.now_ns eng;
    energy_j = E.energy_j eng;
    energy_breakdown = E.energy_breakdown_j eng;
    runtime_work_ns = E.runtime_work_ns eng;
    cow_copies = Mem.Frame.copies (E.frame_allocator eng);
    dram_accesses = E.dram_accesses eng;
    live_at_end = E.live_processes eng;
  }

let run_baseline ?(seed = 42L) ?block_cache ?before_run ~platform ~program () =
  let eng = E.create ?block_cache ~platform ~seed () in
  let pid = E.spawn eng ~program ~core:0 () in
  (match before_run with Some f -> f eng pid | None -> ());
  E.run ~max_ns:Config.max_sim_ns eng;
  let st = E.proc_stats eng pid in
  {
    wall_ns = st.E.ended_ns - st.E.started_ns;
    user_ns = st.E.user_ns;
    sys_ns = st.E.sys_ns;
    energy_j = E.energy_j eng;
    output = E.output eng;
    exit_status = E.exit_status eng pid;
    live_at_end = E.live_processes eng;
  }
