(* The artifact-style CLI:

     parallaft [--platform apple_m2|intel_i7|testing] [--mode ...]
               [--period N] [--scale F] --workload NAME [--input K]

   or, to protect a hand-written assembly file:

     parallaft --asm FILE [options]

   On completion it dumps the statistics keys the paper's artifact
   documents (timing.all_wall_time, counter.checkpoint_count,
   fixed_interval_slicer.nr_slices, ...).

   Observability: [--trace FILE] writes a Chrome/Perfetto trace_event
   JSON of the run (open in ui.perfetto.dev or chrome://tracing),
   [--metrics FILE] a plain-text metric summary (span totals, event
   counts, per-segment histograms). Traces are keyed on simulated
   time, so equal seeds give byte-identical files.
   [--fault SEG,DELAY,REG,BIT] arms a single fault injection (handy for
   demonstrating detection events in a trace); it requires a checker,
   so it is rejected in baseline mode.
   [--fault-target KIND] picks the fault class (checker/main register or
   memory page, or a runtime kill/stall of the checker itself), and
   [--recheck] enables the transient re-check response. *)

open Cmdliner

type mode_arg = Mode_baseline | Mode_parallaft | Mode_raft

let fault_of_string s =
  match String.split_on_char ',' s |> List.map int_of_string_opt with
  | [ Some segment; Some delay_instructions; Some reg; Some bit ] ->
    Ok (segment, delay_instructions, reg, bit)
  | _ -> Error (`Msg ("bad fault plan " ^ s ^ " (want SEG,DELAY,REG,BIT)"))

(* Fleet mode (--tenants N > 1): N tenants of the selected program on
   one shared big/little pool (DESIGN.md §16). A --fault plan arms in
   tenant 0 only, so the stats dump doubles as an isolation demo: the
   other tenants' rows must stay clean. *)
let run_fleet ~tenants ~max_tenants ~arrival ~config ~platform ~program ~seed
    ~fault_plan ~dump_obs sink =
  let configure tid cfg =
    if tid = 0 then { cfg with Parallaft.Config.fault_plan } else cfg
  in
  let f =
    Fleet.run ~seed ?max_tenants ~arrival ~configure ~platform ~config
      ~programs:(List.init tenants (fun _ -> program))
      ()
  in
  let dumped = dump_obs sink in
  List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) (Fleet.to_assoc f);
  let any_bad =
    List.exists
      (fun (t : Fleet.tenant_report) ->
        t.Fleet.outcome = Fleet.Aborted || t.Fleet.outcome = Fleet.Unfinished)
      f.Fleet.tenants
  in
  if not dumped then 1 else if any_bad then 3 else 0

let run platform mode period scale workload input asm_file seed show_output
    trace_file metrics_file fault fault_target recheck recovery profile
    block_cache cpu_stats tenants max_tenants arrival_gap record_log
    backend_kind batch max_lag =
  let fleet = tenants > 1 in
  let spec =
    match (asm_file, workload) with
    | None, Some name -> Workloads.Spec.find name
    | Some _, _ | None, None -> None
  in
  let program =
    match (asm_file, workload, spec) with
    | Some path, _, _ ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      Some (Isa.Asm.assemble_exn ~name:path src)
    | None, _, Some bench ->
      List.nth_opt
        (Workloads.Spec.programs bench ~page_size:platform.Platform.page_size
           ~scale:(Option.value scale ~default:1.0))
        (Option.value input ~default:0)
    | None, Some "hello", None -> Some (Workloads.Micro.hello ())
    | None, Some "getpid", None -> Some (Workloads.Micro.getpid_loop ~iters:1000)
    | None, _, None -> None
  in
  (* Flag dependencies that have no Config meaning: a flag the run
     would silently drop is refused instead. What a run may be is
     Config.validate's, below. *)
  let dropped_flags =
    [
      ( fleet && (profile || cpu_stats || show_output),
        "--profile, --cpu-stats and --show-output are incompatible with \
         --tenants > 1 (the fleet dump has per-tenant rows only)" );
      ( mode = Mode_baseline && (profile || fleet),
        "--profile and --tenants > 1 require --mode parallaft or raft (a \
         baseline run has no segment phases or checkers)" );
      ( (batch <> None || max_lag <> None) && backend_kind <> `Deferred,
        "--batch and --max-lag require --backend deferred (no other backend \
         queues checks)" );
      ( (not fleet) && (max_tenants <> None || arrival_gap <> None),
        "--max-tenants and --arrival require --tenants > 1 (they shape a \
         fleet's admissions)" );
      ( period <> None && mode <> Mode_parallaft,
        "--period requires --mode parallaft (RAFT checks the whole run as \
         one segment, and a baseline run is not sliced)" );
      ( Option.is_some fault_target && fault = None,
        "--fault-target requires --fault (it picks the class of the fault \
         --fault arms)" );
      ( (input <> None || scale <> None) && spec = None,
        "--input and --scale require a SPEC --workload (--asm, hello and \
         getpid take neither)" );
    ]
  in
  let fault_plan =
    Option.map
      (fun (segment, delay_instructions, reg, bit) ->
        let build =
          Option.value fault_target ~default:(fun reg bit ->
              Fault.Checker_register { reg; bit })
        in
        { Fault.segment; delay_instructions; target = build reg bit;
          repeat = false })
      fault
  in
  let config =
    match mode with
    | Mode_raft -> Parallaft.Config.raft ~platform ()
    | Mode_parallaft | Mode_baseline ->
      Parallaft.Config.parallaft ~platform ?slice_period:period ()
  in
  let sink =
    if trace_file <> None || metrics_file <> None || profile then
      Some (Obs.Sink.create ())
    else None
  in
  let config =
    { config with Parallaft.Config.obs = sink; fault_plan; recovery;
      recheck_on_mismatch = recheck; cpu_stats; record_log;
      backend =
        (match backend_kind with
        | `Inline -> Parallaft.Config.Backend_inline
        | `Deferred -> Parallaft.Config.deferred_backend ?batch ?max_lag ()
        | `Remote -> Parallaft.Config.remote_backend ());
      block_cache =
        Option.value block_cache ~default:config.Parallaft.Config.block_cache }
  in
  let kind =
    match mode with
    | Mode_baseline -> Parallaft.Config.Baseline
    | Mode_parallaft | Mode_raft ->
      if fleet then Parallaft.Config.Tenant else Parallaft.Config.Solo
  in
  let refusal =
    match List.find_opt fst dropped_flags with
    | Some (_, why) -> Error why
    | None -> (
      match (Parallaft.Config.validate kind config, record_log, program) with
      | Ok (), Some dir, Some program ->
        Result.map_error (( ^ ) "record-log: ")
          (Parallaft.Seglog_io.validate ~dir ~program)
      | refusal, _, _ -> refusal)
  in
  match (program, refusal) with
  | None, _ ->
    prerr_endline
      ("no such workload/input; known: hello getpid "
      ^ String.concat " " Workloads.Spec.names);
    1
  | Some _, Error why ->
    prerr_endline ("parallaft: " ^ why);
    1
  | Some program, Ok () -> (
    (match sink with
    | Some s when profile -> Obs.Profile.set_enabled s.Obs.Sink.profile true
    | Some _ | None -> ());
    (* Returns false (and complains) if an output file can't be
       written, so the run exits non-zero instead of crashing after
       the simulation already completed. *)
    let dump_obs sink =
      try
        (match (trace_file, sink) with
        | Some path, Some s ->
          Obs.Export.write_file ~path (Obs.Export.chrome_json s.Obs.Sink.trace)
        | _ -> ());
        (match (metrics_file, sink) with
        | Some path, Some s ->
          Obs.Export.write_file ~path
            (Obs.Export.summary s.Obs.Sink.trace
            ^ Obs.Metrics.to_text s.Obs.Sink.metrics)
        | _ -> ());
        true
      with Sys_error msg ->
        Printf.eprintf "parallaft: %s\n" msg;
        false
    in
    match kind with
    | Parallaft.Config.Baseline ->
      (* Keep the engine so --cpu-stats can read the block-cache
         totals after the run; run_baseline itself only returns the
         timing/energy summary. *)
      let eng_ref = ref None in
      let before_run eng _pid =
        eng_ref := Some eng;
        match sink with Some s -> Sim_os.Engine.set_obs eng s | None -> ()
      in
      let b =
        Parallaft.Runtime.run_baseline ~seed
          ~block_cache:config.Parallaft.Config.block_cache ~before_run
          ~platform ~program ()
      in
      let dumped = dump_obs sink in
      Printf.printf "timing.all_wall_time %d\n" b.Parallaft.Runtime.wall_ns;
      Printf.printf "timing.main_wall_time %d\n" b.Parallaft.Runtime.wall_ns;
      Printf.printf "timing.main_user_time %.0f\n" b.Parallaft.Runtime.user_ns;
      Printf.printf "timing.main_sys_time %.0f\n" b.Parallaft.Runtime.sys_ns;
      Printf.printf "hwmon.energy_joules %.6f\n" b.Parallaft.Runtime.energy_j;
      (match !eng_ref with
      | Some eng when cpu_stats ->
        let hits, misses, invalidations =
          Sim_os.Engine.block_cache_totals eng
        in
        Printf.printf "cpu.block_cache_hits %d\n" hits;
        Printf.printf "cpu.block_cache_misses %d\n" misses;
        Printf.printf "cpu.block_cache_invalidations %d\n" invalidations
      | Some _ | None -> ());
      Printf.printf "exit_status %s\n"
        (match b.Parallaft.Runtime.exit_status with
        | Some s -> string_of_int s
        | None -> "none");
      if show_output then print_string b.Parallaft.Runtime.output;
      if dumped then 0 else 1
    | Parallaft.Config.Tenant ->
      let arrival =
        match arrival_gap with
        | None | Some 0 -> Fleet.Batch
        | Some gap -> Fleet.Staggered gap
      in
      run_fleet ~tenants ~max_tenants ~arrival
        ~config:{ config with Parallaft.Config.fault_plan = None }
        ~platform ~program ~seed ~fault_plan ~dump_obs sink
    | Parallaft.Config.Solo ->
      let r = Parallaft.Runtime.run_protected ~seed ~platform ~config ~program () in
      let dumped = dump_obs sink in
      List.iter
        (fun (k, v) -> Printf.printf "%s %s\n" k v)
        (Parallaft.Stats.to_assoc r.Parallaft.Runtime.stats);
      Printf.printf "hwmon.energy_joules %.6f\n" r.Parallaft.Runtime.energy_j;
      List.iter
        (fun (k, v) -> Printf.printf "hwmon.macsmc_hwmon/%s %.6f\n" k v)
        r.Parallaft.Runtime.energy_breakdown;
      Printf.printf "exit_status %s\n"
        (match r.Parallaft.Runtime.exit_status with
        | Some s -> string_of_int s
        | None -> "none");
      List.iter
        (fun (seg, o) ->
          Printf.printf "detection segment=%d %s\n" seg
            (Parallaft.Detection.outcome_to_string o))
        r.Parallaft.Runtime.detections;
      (match sink with
      | Some s when profile ->
        print_string
          (Obs.Profile.to_table s.Obs.Sink.profile
             ~wall_ns:r.Parallaft.Runtime.wall_ns)
      | Some _ | None -> ());
      if show_output then print_string r.Parallaft.Runtime.output;
      if not dumped then 1
      else if r.Parallaft.Runtime.detections <> [] then 3
      else 0)

(* Numeric flags are range-checked as they are parsed: a count, period,
   index, gap or scale out of range is a usage error (exit 124), not a
   run. *)
let int_at_least lo ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg ("expected " ^ what ^ ", got " ^ s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* cmdliner's [enum] also takes any unambiguous prefix ([--mode base]);
   a name must be spelled out. *)
let exact_enum alts =
  let enum = Arg.enum alts in
  let parse s =
    if List.mem_assoc s alts then Arg.conv_parser enum s
    else Error (`Msg ("invalid value '" ^ s ^ "', expected one of "
                      ^ String.concat ", " (List.map fst alts)))
  in
  Arg.conv (parse, Arg.conv_printer enum)

let positive_int = int_at_least 1 ~what:"a positive integer"
let non_negative_int = int_at_least 0 ~what:"a non-negative integer"

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some _ | None -> Error (`Msg ("expected a positive finite number, got " ^ s))
  in
  Arg.conv (parse, Format.pp_print_float)

let platform_arg =
  let platforms =
    List.map (fun p -> (p.Platform.name, p)) Platform.[ apple_m2; intel_i7; testing ]
  in
  Arg.(value & opt (exact_enum platforms) Platform.apple_m2 & info [ "platform" ]
         ~docv:"NAME" ~doc:"Platform model: apple_m2, intel_i7 or testing.")

let mode_arg =
  let modes =
    [ ("baseline", Mode_baseline); ("parallaft", Mode_parallaft); ("raft", Mode_raft) ]
  in
  Arg.(value & opt (exact_enum modes) Mode_parallaft & info [ "mode" ] ~docv:"MODE"
         ~doc:"baseline, parallaft or raft.")

let period_arg =
  Arg.(value & opt (some positive_int) None & info [ "period" ] ~docv:"N"
         ~doc:"Slicing period in platform units (cycles/instructions). Only \
               valid with --mode parallaft.")

let scale_arg =
  Arg.(value & opt (some positive_float) None & info [ "scale" ] ~docv:"F"
         ~doc:"SPEC workload scale factor (default 1.0).")

let workload_arg =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
         ~doc:"Benchmark name (e.g. 429.mcf or mcf) or hello/getpid.")

let input_arg =
  Arg.(value & opt (some non_negative_int) None & info [ "input" ] ~docv:"K"
         ~doc:"SPEC workload input index (default 0).")

let asm_arg =
  Arg.(value & opt (some file) None & info [ "asm" ] ~docv:"FILE"
         ~doc:"Assemble and protect this assembly file instead.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let show_output_arg =
  Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's stdout.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome/Perfetto trace_event JSON of the run to $(docv).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write a plain-text summary of the run to $(docv): span \
               totals and per-name event counts from the trace, then one \
               line per metric histogram.")

let fault_arg =
  let fault_conv =
    Arg.conv (fault_of_string, fun ppf _ -> Format.fprintf ppf "<fault>")
  in
  Arg.(value & opt (some fault_conv) None & info [ "fault" ] ~docv:"SEG,DELAY,REG,BIT"
         ~doc:"Arm one fault injection: flip $(i,BIT) of $(i,REG) in the checker \
               of segment $(i,SEG) after $(i,DELAY) instructions. Only valid \
               with --mode parallaft or raft.")

let fault_target_arg =
  let kinds =
    List.map
      (fun k -> (k, Result.get_ok (Fault.target_kind_of_string k)))
      Fault.all_target_kinds
  in
  Arg.(value & opt (some (exact_enum kinds)) None & info [ "fault-target" ] ~docv:"KIND"
         ~doc:"Fault target class for --fault: checker-reg (the default), \
               checker-mem, main-reg, main-mem, runtime-kill or \
               runtime-stall. For memory targets the REG field of --fault is \
               the mapped-page index; runtime targets ignore REG and BIT.")

let recheck_arg =
  Arg.(value & flag & info [ "recheck" ]
         ~doc:"Re-dispatch a failed check once on a fresh checker forked from \
               the segment's start snapshot; a passing re-check classifies the \
               failure as a transient checker fault and the run continues \
               without rollback.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Enable the phase-attribution profiler and print a self-time \
               breakdown table (record/replay/compare/fork/... phases, \
               per-segment attribution) after the stats dump. Also adds \
               profile.* counter tracks to --trace output.")

let block_cache_arg =
  Arg.(value & opt (some int) None & info [ "block-cache" ] ~docv:"N"
         ~doc:"Decoded-block cache capacity per simulated CPU ($(docv) <= 0 \
               disables it). Purely an interpreter speedup: simulated \
               behaviour, stats and traces are byte-identical either way. \
               Default 4096.")

let cpu_stats_arg =
  Arg.(value & flag & info [ "cpu-stats" ]
         ~doc:"Append interpreter-internal cpu.block_cache_* rows (decoded-\
               block cache hits/misses/invalidations, summed over all \
               simulated CPUs) to the stats dump.")

let recovery_arg =
  Arg.(value & flag & info [ "recovery" ]
         ~doc:"Enable error recovery: on a detection, roll the main process \
               back to the last verified checkpoint and re-execute instead of \
               terminating the run.")

let tenants_arg =
  Arg.(value & opt positive_int 1 & info [ "tenants" ] ~docv:"N"
         ~doc:"Fleet mode (DESIGN.md §16): run $(docv) tenants of the selected \
               workload concurrently on one shared big/little core pool, each \
               under its own Parallaft pipeline, checkers scheduled by \
               work-stealing. Dumps fleet.* rows instead of the single-run \
               stats. A --fault plan arms in tenant 0 only, so the other \
               tenants' rows demonstrate fault isolation. Only valid with \
               --mode parallaft.")

let max_tenants_arg =
  Arg.(value & opt (some positive_int) None & info [ "max-tenants" ] ~docv:"M"
         ~doc:"Admission-control slots: at most $(docv) tenants live at once; \
               later arrivals wait in the admission queue for a free slot \
               (default: no limit beyond --tenants).")

let arrival_arg =
  Arg.(value & opt (some non_negative_int) None & info [ "arrival" ] ~docv:"GAP_NS"
         ~doc:"Open-loop arrivals: tenant $(i,i) arrives at $(i,i) * $(docv) \
               simulated ns (0 or omitted: all tenants arrive at t=0).")

let record_log_arg =
  Arg.(value & opt (some string) None & info [ "record-log" ] ~docv:"DIR"
         ~doc:"Persist the run's segment record/replay stream as a \
               $(i,parallaft-seglog v2) log in $(docv) (a manifest plus one \
               file per verified segment). The log can be \
               re-checked offline with $(b,parallaft-replay). Only valid \
               with --mode parallaft and a single tenant.")

let backend_arg =
  let kinds = [ ("inline", `Inline); ("deferred", `Deferred); ("remote", `Remote) ] in
  Arg.(value & opt (exact_enum kinds) `Inline & info [ "backend" ] ~docv:"KIND"
         ~doc:"Checker backend (DESIGN.md §18): $(b,inline) launches each \
               checker the instant its segment finishes recording (the \
               default, byte-identical to the classic pipeline); \
               $(b,deferred) queues finished segments and checks --batch per \
               wakeup under a --max-lag verification-lag budget; $(b,remote) \
               dispatches checks to a pool of simulated checker nodes \
               supervised by per-segment leases with heartbeat expiry and \
               re-dispatch. Only valid with --mode parallaft.")

let batch_arg =
  Arg.(value & opt (some positive_int) None & info [ "batch" ] ~docv:"N"
         ~doc:"Deferred backend: launch up to $(docv) queued checks per \
               wakeup (default 4). Only meaningful with --backend deferred.")

let max_lag_arg =
  Arg.(value & opt (some positive_int) None & info [ "max-lag" ] ~docv:"N"
         ~doc:"Deferred backend: at most $(docv) recorded-but-unverified \
               segments may be outstanding before the recorder is \
               backpressured (default 8). Only meaningful with --backend \
               deferred.")

let cmd =
  let term =
    Term.(
      const run $ platform_arg $ mode_arg $ period_arg $ scale_arg $ workload_arg
      $ input_arg $ asm_arg $ seed_arg $ show_output_arg $ trace_arg
      $ metrics_arg $ fault_arg $ fault_target_arg $ recheck_arg $ recovery_arg
      $ profile_arg $ block_cache_arg $ cpu_stats_arg $ tenants_arg
      $ max_tenants_arg $ arrival_arg $ record_log_arg $ backend_arg
      $ batch_arg $ max_lag_arg)
  in
  Cmd.v
    (Cmd.info "parallaft"
       ~doc:"Run a program under the Parallaft fault-tolerance runtime (simulated)")
    term

let () = exit (Cmd.eval' cmd)
