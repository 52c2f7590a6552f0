(* ftbench — the repository's benchmark.

     sh ftbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   One process runs one workload on one OCaml domain. It generates the
   workload's programs from the seed, sets up (generation plus one
   warm-up iteration) five times, then repeats the workload's iteration
   for S host seconds. With [--trace 1] three traced iterations follow
   with an [Obs.Sink] attached (metrics, trace ring, phase profiler,
   [cpu_stats]), then the per-layer probes. Every run ends with one
   iteration on a held-out seed derived from N. Every simulated run is
   checked by the oracle below; the last stdout line is one JSON object
   holding the end-to-end metrics ([--trace 0]) or the per-layer ones
   ([--trace 1]). ftbench/METRICS.md defines every metric. *)

module Config = Parallaft.Config
module Runtime = Parallaft.Runtime
module Stats = Parallaft.Stats

(* ---------------------------------------------------------------- *)
(* Workloads *)

type kind =
  | Inline  (** per program: baseline, Parallaft (inline backend), RAFT *)
  | Record_replay
      (** the same three runs, Parallaft with the deferred backend and a
          record log that is then decoded and re-checked offline *)
  | Fleet_recovery
      (** one [Fleet.run] of all programs with a main-memory fault in
          tenant 0 and recovery on, plus each tenant's solo baseline and
          fault-free solo RAFT run *)

type workload = {
  name : string;
  platform : Platform.t;
  profiles : string list;  (** one program per [Workloads.Spec] profile *)
  scale : float;  (** outer-iteration scale of every program *)
  kind : kind;
}

let workloads =
  [
    {
      name = "dirty-heavy";
      platform = Platform.apple_m2;
      profiles = [ "429.mcf" ];
      scale = 0.5;
      kind = Inline;
    };
    {
      name = "compute-bound";
      platform = Platform.apple_m2;
      profiles = [ "458.sjeng"; "456.hmmer" ];
      scale = 0.5;
      kind = Inline;
    };
    {
      name = "record-replay";
      platform = Platform.apple_m2;
      profiles = [ "401.bzip2" ];
      scale = 1.0;
      kind = Record_replay;
    };
    {
      name = "fleet-recovery";
      platform = Platform.intel_i7;
      profiles = List.init 4 (fun _ -> "403.gcc");
      scale = 0.5;
      kind = Fleet_recovery;
    };
  ]

(* Every seed the benchmark uses derives from the --seed argument. *)
let derive seed index = Util.Rng.next_int64 (Util.Rng.stream ~root:seed ~index)
let sim_seed seed = derive seed 1000
let heldout_seed seed = Int64.logand (derive seed 2000) 0x3fff_ffffL

let scale_pattern ~factor = function
  | Workloads.Codegen.Chase c ->
    Workloads.Codegen.Chase
      { c with pages = c.pages * factor; hot_pages = c.hot_pages * factor }
  | Workloads.Codegen.Stream s ->
    Workloads.Codegen.Stream { s with pages = s.pages * factor }
  | Workloads.Codegen.Blocked { pages } ->
    Workloads.Codegen.Blocked { pages = pages * factor }

(* One program per profile, laid out like [Workloads.Spec.programs] lays
   out an input (footprint converted to the platform's page size) but
   seeded from the benchmark seed. gettime, rdtsc and mmap churn are
   removed, as the fault-injection campaign does: their results depend
   on simulated time or OS entropy, which differ between a baseline and
   a protected run, so with them the outputs could not be compared. *)
let generate w ~seed =
  let page_size = w.platform.Platform.page_size in
  let factor = max 1 (16384 / page_size) in
  List.mapi
    (fun i profile ->
      let b =
        match Workloads.Spec.find profile with
        | Some b -> b
        | None -> failwith ("ftbench: unknown profile " ^ profile)
      in
      let spec = b.Workloads.Spec.spec in
      let spec =
        {
          spec with
          Workloads.Codegen.outer_iters =
            max 1 (int_of_float (float_of_int b.Workloads.Spec.base_outer *. w.scale));
          pattern = scale_pattern ~factor spec.Workloads.Codegen.pattern;
          gettime_every = 0;
          rdtsc_every = 0;
          mmap_churn = false;
        }
      in
      Span.record "workloads.generate" (fun () ->
          Workloads.Codegen.generate
            ~name:(Printf.sprintf "%s/%d" profile i)
            ~seed:(derive seed i) ~page_size spec))
    w.profiles

(* ---------------------------------------------------------------- *)
(* Oracle: every simulated run is one operation *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let check name conds =
  incr attempted;
  match List.filter_map (fun (what, ok) -> if ok then None else Some what) conds with
  | [] -> ()
  | bad ->
    incr failed;
    failures := Printf.sprintf "%s: %s" name (String.concat ", " bad) :: !failures

let check_baseline label (b : Runtime.baseline) =
  check (label ^ " baseline") [ ("exits 0", b.Runtime.exit_status = Some 0) ]

let check_protected label ~(base : Runtime.baseline) (r : Runtime.report) =
  check label
    [
      ("exits 0", r.Runtime.exit_status = Some 0);
      ("not aborted", not r.Runtime.aborted);
      ("no detection", r.Runtime.detections = []);
      ("output equals baseline", r.Runtime.output = base.Runtime.output);
      ("final-state hash present", Stats.final_state_hash r.Runtime.stats <> None);
    ]

(* ---------------------------------------------------------------- *)
(* One iteration *)

type sim = {
  perf_pct : float;
  energy_pct : float;
  raft_slowdown : float;
  raft_energy_pct : float;
  latency_p50_us : float;
  latency_p99_us : float;
  latency_samples : int;
}

type log = {
  header : Seglog.Record.header;
  files : Bytes.t list;  (** segment files as recorded, in write order *)
  segments : Seglog.Record.segment list;
}

type iteration = {
  sim : sim;
  counters : (string * float) list;
  protected_insns : float;  (** guest insns of the protected main(s) *)
  main_insns : float;  (** guest insns of the fault-free RAFT mains *)
  logs : log list;
}

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio num den = if den <= 0. then 0. else num /. den
let pct num den = if den <= 0. then 0. else ((num /. den) -. 1.) *. 100.
let insns (st : Stats.t) = float_of_int (List.fold_left ( + ) 0 st.Stats.segment_insn_deltas)

let make_sink ~traced =
  let sink = Obs.Sink.create ~trace_capacity:(if traced then 65536 else 1) () in
  if traced then Obs.Profile.set_enabled sink.Obs.Sink.profile true
  else Obs.Trace.set_enabled sink.Obs.Sink.trace false;
  sink

let hist_pct sink name p =
  match Obs.Metrics.hist sink.Obs.Sink.metrics name with
  | Some h -> Obs.Metrics.Hist.percentile h p
  | None -> 0.

let latency sink ~perf_pct ~energy_pct ~raft_slowdown ~raft_energy_pct =
  {
    perf_pct;
    energy_pct;
    raft_slowdown;
    raft_energy_pct;
    latency_p50_us = hist_pct sink "checker.latency_ns" 50. /. 1e3;
    latency_p99_us = hist_pct sink "checker.latency_ns" 99. /. 1e3;
    latency_samples =
      (match Obs.Metrics.hist sink.Obs.Sink.metrics "checker.latency_ns" with
      | Some h -> Obs.Metrics.Hist.count h
      | None -> 0);
  }

let concurrent_phases =
  [ "replay"; "compare"; "fork"; "dirty_scan"; "checker_launch"; "record_io";
    "scheduler_idle"; "rollback" ]

(* Per-layer counters of one iteration's protected runs ([stats]: the
   Parallaft runs or fleet tenants; [raft]: the RAFT runs). *)
let stats_counters ~sink (stats : Stats.t list) (raft : Stats.t list) =
  let sumi f = sumf (fun s -> float_of_int (f s)) stats in
  let hits = sumi (fun s -> s.Stats.page_hash_hits) in
  let misses = sumi (fun s -> s.Stats.page_hash_misses) in
  let big = sumf (fun s -> s.Stats.checker_big_ns) stats in
  let little = sumf (fun s -> s.Stats.checker_little_ns) stats in
  let caches = List.filter_map (fun s -> s.Stats.block_cache) (stats @ raft) in
  let bc_hits = sumf (fun (h, _, _) -> float_of_int h) caches in
  let bc_misses = sumf (fun (_, m, _) -> float_of_int m) caches in
  let logs = List.filter_map (fun s -> s.Stats.seglog) stats in
  let raw = sumf (fun l -> float_of_int l.Stats.seglog_raw_page_bytes) logs in
  let stored = sumf (fun l -> float_of_int l.Stats.seglog_stored_page_bytes) logs in
  let phases = Obs.Profile.phases sink.Obs.Sink.profile in
  let phase name f =
    match List.assoc_opt name phases with
    | Some p -> float_of_int (f p)
    | None -> 0.
  in
  [
    ("core.segments", sumi (fun s -> s.Stats.segments_total));
    ("core.migrations", sumi (fun s -> s.Stats.migrations));
    ("core.big_core_work_fraction", ratio big (big +. little));
    ("core.recoveries", sumi (fun s -> s.Stats.recoveries));
    ("core.detections", sumi (fun s -> List.length s.Stats.detections));
    ("core.dirty_pages", sumi (fun s -> s.Stats.dirty_pages_total));
    ("core.comparator.bytes_hashed", sumi (fun s -> s.Stats.bytes_hashed));
    ("core.comparator.page_hash_hit_ratio", ratio hits (hits +. misses));
    ( "core.comparator.pages_skipped_identical",
      sumi (fun s -> s.Stats.pages_skipped_identical) );
    ("mem.checkpoint_count", sumi (fun s -> s.Stats.checkpoint_count));
    ("backend.batches", sumi (fun s -> s.Stats.backend.Stats.b_batches));
    ( "backend.max_lag_observed",
      List.fold_left (fun m s -> max m (float_of_int s.Stats.backend.Stats.b_max_lag)) 0. stats );
    ("backend.launch_overhead_ns", sumi (fun s -> s.Stats.backend.Stats.b_launch_ns));
    ("seglog.bytes_written", sumf (fun l -> float_of_int l.Stats.seglog_bytes) logs);
    ("seglog.compression_ratio", ratio raw stored);
    ("machine.block_cache_hit_ratio", ratio bc_hits (bc_hits +. bc_misses));
    ( "machine.decoded_blocks",
      sumf (fun (_, p) -> float_of_int p.Obs.Profile.decoded) phases );
    ( "core.profile_insns",
      phase "record" (fun p -> p.Obs.Profile.insns)
      +. phase "replay" (fun p -> p.Obs.Profile.insns) );
    ("core.sim.record_self_ns", phase "record" (fun p -> p.Obs.Profile.self_ns));
    ("core.sim.drain_self_ns", phase "drain" (fun p -> p.Obs.Profile.self_ns));
  ]
  @ List.map
      (fun name ->
        ( Printf.sprintf "core.sim.%s_self_ns" name,
          phase name (fun p -> p.Obs.Profile.self_ns) ))
      concurrent_phases

let read_file path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Decode a record log with [Seglog.Reader] and re-check it with
   [Offline.replay]. *)
let replay_log label dir =
  let file name = read_file (Filename.concat dir name) in
  let decoded =
    match Seglog.Reader.manifest (file "manifest.plog") with
    | Error e -> Error (Seglog.Codec.error_to_string e)
    | Ok manifest -> (
      match Seglog.Reader.validate_fingerprint manifest with
      | Error e -> Error (Seglog.Codec.error_to_string e)
      | Ok () -> (
        let files =
          List.map
            (fun id -> file (Parallaft.Seglog_io.segment_file_name id))
            manifest.Seglog.Record.segments
        in
        let reader =
          Seglog.Reader.create
            ~config_digest:manifest.Seglog.Record.header.Seglog.Record.config_digest
        in
        let rec decode acc = function
          | [] -> Ok (List.rev acc)
          | b :: rest -> (
            match Seglog.Reader.segment reader b with
            | Ok s -> decode (s :: acc) rest
            | Error e -> Error (Seglog.Codec.error_to_string e))
        in
        match Span.record "seglog.decode" (fun () -> decode [] files) with
        | Error e -> Error e
        | Ok segments -> Ok (manifest, files, segments)))
  in
  match decoded with
  | Error e ->
    check (label ^ " seglog decode") [ (e, false) ];
    None
  | Ok (manifest, files, segments) ->
    check (label ^ " seglog decode")
      [
        ("at least one segment", segments <> []);
        ( "segment ids in manifest order",
          List.map (fun s -> s.Seglog.Record.id) segments
          = manifest.Seglog.Record.segments );
      ];
    let verdict =
      Span.record "core.offline_replay" (fun () ->
          Parallaft.Offline.replay ~manifest ~segments)
    in
    check (label ^ " offline replay")
      [
        ( "verified with matching final hash",
          match verdict with
          | Ok (Parallaft.Offline.Verified { final_hash_matches = Some true; _ }) -> true
          | Ok _ | Error _ -> false );
      ];
    Some { header = manifest.Seglog.Record.header; files; segments }

let baseline ~platform ~seed program =
  Span.record "os.run_baseline" (fun () ->
      Runtime.run_baseline ~seed ~platform ~program ())

let parallaft_config ~platform ~sink ~traced =
  {
    (Config.parallaft ~platform ()) with
    Config.check_invariants = false;
    cpu_stats = traced;
    obs = Some sink;
  }

let raft_config ~platform ~traced =
  { (Config.raft ~platform ()) with Config.check_invariants = false; cpu_stats = traced }

let run_single w ~seed ~sink ~traced ~tmp programs =
  let platform = w.platform in
  let pcfg = parallaft_config ~platform ~sink ~traced in
  let pcfg =
    match w.kind with
    | Record_replay -> { pcfg with Config.backend = Config.deferred_backend ~batch:4 ~max_lag:8 () }
    | Inline | Fleet_recovery -> pcfg
  in
  let rcfg = raft_config ~platform ~traced in
  let runs =
    List.mapi
      (fun i program ->
        let label = program.Isa.Program.name in
        let base = baseline ~platform ~seed program in
        let log_dir =
          match w.kind with
          | Record_replay -> Some (Filename.concat tmp (Printf.sprintf "log-%d" i))
          | Inline | Fleet_recovery -> None
        in
        let par =
          Span.record "core.run_protected" (fun () ->
              Runtime.run_protected ~seed ~platform
                ~config:{ pcfg with Config.record_log = log_dir }
                ~program ())
        in
        let raft =
          Span.record "core.run_raft" (fun () ->
              Runtime.run_protected ~seed ~platform ~config:rcfg ~program ())
        in
        check_baseline label base;
        check_protected (label ^ " parallaft") ~base par;
        check_protected (label ^ " raft") ~base raft;
        check (label ^ " modes agree")
          [
            ( "Parallaft and RAFT final-state hashes agree",
              Stats.final_state_hash par.Runtime.stats
              = Stats.final_state_hash raft.Runtime.stats );
          ];
        let log =
          Option.bind log_dir (fun dir ->
              let log = replay_log label dir in
              remove_dir dir;
              log)
        in
        (base, par, raft, log))
      programs
  in
  let bases = List.map (fun (b, _, _, _) -> b) runs in
  let pars = List.map (fun (_, p, _, _) -> p) runs in
  let rafts = List.map (fun (_, _, r, _) -> r) runs in
  let base_wall = sumf (fun (b : Runtime.baseline) -> float_of_int b.Runtime.wall_ns) bases in
  let base_energy = sumf (fun (b : Runtime.baseline) -> b.Runtime.energy_j) bases in
  let wall (r : Runtime.report) = float_of_int r.Runtime.wall_ns in
  let energy (r : Runtime.report) = r.Runtime.energy_j in
  let stats (r : Runtime.report) = r.Runtime.stats in
  {
    sim =
      latency sink
        ~perf_pct:(pct (sumf wall pars) base_wall)
        ~energy_pct:(pct (sumf energy pars) base_energy)
        ~raft_slowdown:(ratio (sumf wall rafts) base_wall)
        ~raft_energy_pct:(pct (sumf energy rafts) base_energy);
    counters =
      stats_counters ~sink (List.map stats pars) (List.map stats rafts)
      @ [
          ("mem.cow_copies", sumf (fun r -> float_of_int r.Runtime.cow_copies) pars);
          ("os.runtime_work_ns", sumf (fun r -> r.Runtime.runtime_work_ns) pars);
          ("os.dram_accesses", sumf (fun r -> float_of_int r.Runtime.dram_accesses) pars);
        ];
    protected_insns = sumf (fun r -> insns (stats r)) pars;
    main_insns = sumf (fun r -> insns (stats r)) rafts;
    logs = (if traced then List.filter_map (fun (_, _, _, l) -> l) runs else []);
  }

(* A transient bit flip in a data page of tenant 0's main, early in its
   second segment: the state comparison detects it and recovery rolls
   tenant 0 back while the other tenants keep running. *)
let fleet_fault =
  {
    Fault.segment = 1;
    delay_instructions = 100;
    target = Fault.Main_memory_page { page_index = 3; bit = 9 };
    repeat = false;
  }

let run_fleet w ~seed ~sink ~traced programs =
  let platform = w.platform in
  let pcfg = { (parallaft_config ~platform ~sink ~traced) with Config.recovery = true } in
  let rcfg = raft_config ~platform ~traced in
  let n = List.length programs in
  let fleet =
    Span.record "fleet.run" (fun () ->
        Fleet.run ~seed ~max_tenants:n ~arrival:Fleet.Batch
          ~configure:(fun tid cfg ->
            if tid = 0 then { cfg with Config.fault_plan = Some fleet_fault } else cfg)
          ~platform ~config:pcfg ~programs ())
  in
  let solo =
    List.mapi
      (fun tid program ->
        let label = program.Isa.Program.name in
        let base = baseline ~platform ~seed program in
        let rng, prng = Fleet.tenant_rngs ~seed ~tid in
        let raft =
          Span.record "core.run_raft" (fun () ->
              Runtime.run_protected ~seed ~rng ~prng ~platform ~config:rcfg ~program ())
        in
        check_baseline label base;
        check_protected (label ^ " solo raft") ~base raft;
        (base, raft))
      programs
  in
  List.iter2
    (fun (t : Fleet.tenant_report) (_, (raft : Runtime.report)) ->
      check
        (Printf.sprintf "fleet tenant %d" t.Fleet.tid)
        [
          ("completed", t.Fleet.outcome = Fleet.Completed);
          ("exits 0", t.Fleet.exit_status = Some 0);
          ( "final-state hash equals the fault-free solo run",
            t.Fleet.final_state_hash <> None
            && t.Fleet.final_state_hash = Stats.final_state_hash raft.Runtime.stats );
        ])
    fleet.Fleet.tenants solo;
  check "fleet"
    [
      ("every tenant admitted", fleet.Fleet.admitted = n);
      ("live_at_end = 0", fleet.Fleet.live_at_end = 0);
    ];
  let tenants = List.filter_map (fun (t : Fleet.tenant_report) -> t.Fleet.stats) fleet.Fleet.tenants in
  let bases = List.map fst solo and rafts = List.map snd solo in
  let base_wall (b : Runtime.baseline) = float_of_int b.Runtime.wall_ns in
  let base_energy = sumf (fun (b : Runtime.baseline) -> b.Runtime.energy_j) bases in
  let longest_base = List.fold_left (fun m b -> Float.max m (base_wall b)) 0. bases in
  {
    sim =
      latency sink
        ~perf_pct:(pct (float_of_int fleet.Fleet.wall_ns) longest_base)
        ~energy_pct:(pct fleet.Fleet.energy_j base_energy)
        ~raft_slowdown:
          (ratio (sumf (fun (r : Runtime.report) -> float_of_int r.Runtime.wall_ns) rafts)
             (sumf base_wall bases))
        ~raft_energy_pct:
          (pct (sumf (fun (r : Runtime.report) -> r.Runtime.energy_j) rafts) base_energy);
    counters =
      stats_counters ~sink tenants (List.map (fun (r : Runtime.report) -> r.Runtime.stats) rafts)
      @ [
          ("fleet.steals", float_of_int fleet.Fleet.steals);
          ("fleet.migrations", float_of_int fleet.Fleet.migrations);
          ("fleet.queue_depth_p99", hist_pct sink "fleet.queue_depth" 99.);
          ("fleet.throughput_segments_per_s", fleet.Fleet.throughput_segments_per_s);
        ];
    protected_insns = sumf insns tenants;
    main_insns = sumf (fun (r : Runtime.report) -> insns r.Runtime.stats) rafts;
    logs = [];
  }

let iterate w ~seed ~traced ~tmp programs =
  let sink = make_sink ~traced in
  let seed = sim_seed seed in
  Span.record "iteration" (fun () ->
      match w.kind with
      | Inline | Record_replay -> run_single w ~seed ~sink ~traced ~tmp programs
      | Fleet_recovery -> run_fleet w ~seed ~sink ~traced programs)

(* A fixed host workload of the benchmark's own, calling no simulator
   code: it scans a 1 MiB buffer and fills a hash table, about 0.05 s on
   the shared 2-vCPU VM it was tuned on. The host is shared, and other
   tenants slow it down in episodes that can outlast a whole run; the
   reference loop slows down with it, so host times are scaled by
   [reference_s] over the lower quartile of every reference run in the
   process. One 0.05 s reference run is too short to scale the iteration
   after it: sub-second bursts hit one and miss the other. *)
let reference_s = 0.05

let reference () =
  let b = Bytes.init (1 lsl 20) (fun i -> Char.unsafe_chr (i land 255)) in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for r = 1 to 20 do
    for i = 0 to (Bytes.length b / 8) - 1 do
      acc := !acc lxor (Int64.to_int (Bytes.get_int64_le b (i * 8)) * r)
    done;
    for i = 0 to 9999 do
      Hashtbl.replace h (i * r) [ i; r ]
    done
  done;
  Sys.opaque_identity !acc

let iteration_ids = ref 0

(* Start a new iteration id. Every iteration starts from a collected heap,
   so its host time does not depend on where the previous one left the
   major GC, and is preceded by one reference run. *)
let new_iteration () =
  incr iteration_ids;
  Span.set_iteration !iteration_ids;
  Gc.full_major ();
  ignore (Span.record "reference" reference);
  !iteration_ids

(* ---------------------------------------------------------------- *)
(* Per-layer probes, run after the traced iteration *)

let host_time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* [quantile p l]: linear interpolation between the closest ranks of
   the sorted values (index [p * (n - 1)]). *)
let quantile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Host seconds in reference seconds (see [reference]). *)
let in_reference_s seconds = seconds *. reference_s /. quantile 0.25 (Span.roots "reference")

(* [(bytes, pos, len)] page images to hash: the decoded log's dirty pages
   when the iteration recorded one, the programs' data images otherwise. *)
let page_images ~page_size programs logs =
  match logs with
  | [] ->
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (seg : Isa.Program.data_segment) ->
            let len = Bytes.length seg.Isa.Program.bytes in
            List.init ((len + page_size - 1) / page_size) (fun i ->
                (seg.Isa.Program.bytes, i * page_size, min page_size (len - (i * page_size)))))
          p.Isa.Program.data)
      programs
  | logs ->
    List.concat_map
      (fun l ->
        List.concat_map
          (fun (s : Seglog.Record.segment) ->
            Array.to_list
              (Array.map (fun (_, b) -> (b, 0, Bytes.length b)) s.Seglog.Record.pages))
          l.segments)
      logs

let probes w ~seed ~programs (it : iteration) =
  let platform = w.platform in
  let regenerated = generate w ~seed in
  check "regeneration"
    [ ("generation is deterministic", List.for_all2 ( = ) regenerated programs) ];
  (* Block-cache A/B on the first program, alternating which side runs
     first; the speed-up is the ratio of the two medians. *)
  let program = List.hd programs in
  let seed = sim_seed seed in
  let run name block_cache =
    Span.record name (fun () ->
        host_time (fun () -> Runtime.run_baseline ~seed ?block_cache ~platform ~program ()))
  in
  let pairs =
    List.init 5 (fun i ->
        if i mod 2 = 0 then
          let on = run "machine.baseline_cache_on" None in
          (on, run "machine.baseline_cache_off" (Some 0))
        else
          let off = run "machine.baseline_cache_off" (Some 0) in
          (run "machine.baseline_cache_on" None, off))
  in
  List.iter
    (fun ((_, (on : Runtime.baseline)), (_, (off : Runtime.baseline))) ->
      check "block cache A/B"
        [ ("output identical with the cache off", on.Runtime.output = off.Runtime.output) ])
    pairs;
  let speedup =
    ratio (median (List.map (fun (_, (t, _)) -> t) pairs)) (median (List.map (fun ((t, _), _) -> t) pairs))
  in
  (* XXH64 over real page images, repeated to at least 50 ms. *)
  let pages = page_images ~page_size:platform.Platform.page_size programs it.logs in
  let page_bytes = sumf (fun (_, _, len) -> float_of_int len) pages in
  let hashed = ref 0. in
  let hash_s =
    Span.record "hash.xxh64" (fun () ->
        let t0 = Unix.gettimeofday () in
        let rec loop () =
          List.iter (fun (b, pos, len) -> ignore (Ftr_hash.Xxh64.hash_sub b ~pos ~len)) pages;
          hashed := !hashed +. page_bytes;
          let elapsed = Unix.gettimeofday () -. t0 in
          if elapsed < 0.05 then loop () else elapsed
        in
        loop ())
  in
  (* Re-encode each decoded log in write order; the bytes must equal the
     recorded files. *)
  List.iter
    (fun l ->
      let encoded =
        Span.record "seglog.encode" (fun () ->
            let wr = Seglog.Writer.create ~header:l.header in
            List.map (Seglog.Writer.segment wr) l.segments)
      in
      check "seglog re-encode" [ ("bytes equal the recorded files", encoded = l.files) ])
    it.logs;
  [
    ("machine.block_cache_speedup", speedup);
    ("hash.xxh64_host_ns_per_kib", ratio (hash_s *. 1e9) (!hashed /. 1024.));
  ]

(* ---------------------------------------------------------------- *)
(* Metrics *)

type metric = {
  name : string;
  unit_ : string;
  clock : string;  (** "host" or "sim" *)
  value : float;
}

let end_to_end ~setup_ids ~timed ~heap_mb (first : iteration) =
  let host_s = List.map (fun (id, _) -> Span.root ~iter:id "iteration") timed in
  let minsn_per_s =
    List.map
      (fun (id, (it : iteration)) ->
        let s = Span.seconds ~iter:id "core.run_protected" +. Span.seconds ~iter:id "fleet.run" in
        ratio it.protected_insns s /. 1e6)
      timed
  in
  let s = first.sim in
  (* Interference only ever adds time, also in short bursts within a run,
     so the per-iteration host metrics are read at the iterations' faster
     quartile (lower quartile of time, upper quartile of throughput), and
     all are expressed in reference seconds (see [reference]). *)
  [
    { name = "setup_s"; unit_ = "s"; clock = "host";
      value = in_reference_s (median (List.map (fun id -> Span.root ~iter:id "setup") setup_ids)) };
    { name = "host_s"; unit_ = "s"; clock = "host"; value = in_reference_s (quantile 0.25 host_s) };
    { name = "protected_minsn_per_host_s"; unit_ = "Minsn/s"; clock = "host";
      value = quantile 0.75 minsn_per_s /. in_reference_s 1. };
    { name = "host_heap_mb"; unit_ = "MiB"; clock = "host"; value = heap_mb };
    { name = "sim_perf_overhead_pct"; unit_ = "%"; clock = "sim"; value = s.perf_pct };
    { name = "sim_energy_overhead_pct"; unit_ = "%"; clock = "sim"; value = s.energy_pct };
    { name = "sim_raft_slowdown"; unit_ = "x"; clock = "sim"; value = s.raft_slowdown };
    { name = "sim_raft_energy_overhead_pct"; unit_ = "%"; clock = "sim";
      value = s.raft_energy_pct };
    { name = "sim_check_latency_us_p50"; unit_ = "us"; clock = "sim"; value = s.latency_p50_us };
    { name = "sim_check_latency_us_p99"; unit_ = "us"; clock = "sim"; value = s.latency_p99_us };
  ]

let per_layer ~traced_id ~probe_id ~overhead_pct (it : iteration) probe =
  let c name = Option.value ~default:0. (List.assoc_opt name it.counters) in
  let p name = Option.value ~default:0. (List.assoc_opt name probe) in
  let span name = Span.total ~iter:traced_id name in
  let base_s, base_w = span "os.run_baseline" in
  let run_s, run_w = span "core.run_protected" in
  let fleet_s, fleet_w = span "fleet.run" in
  let prot_s = run_s +. fleet_s and prot_w = run_w +. fleet_w in
  let raft_s, _ = span "core.run_raft" in
  let offline_s, _ = span "core.offline_replay" in
  let decode_s, _ = span "seglog.decode" in
  let encode_s = Span.seconds ~iter:probe_id "seglog.encode" in
  let segments = List.concat_map (fun l -> l.segments) it.logs in
  let raw_kib =
    sumf
      (fun (s : Seglog.Record.segment) ->
        sumf (fun (_, b) -> float_of_int (Bytes.length b)) (Array.to_list s.Seglog.Record.pages))
      segments
    /. 1024.
  in
  let log_insns = sumf (fun (s : Seglog.Record.segment) -> float_of_int s.Seglog.Record.insn_delta) segments in
  let ns_per seconds n = ratio (seconds *. 1e9) n in
  let prof_insns = c "core.profile_insns" in
  let m ?(clock = "host") name unit_ value = { name; unit_; clock; value } in
  let counter name unit_ = m ~clock:"sim" name unit_ (c name) in
  [
    m "workloads.generate_s" "s" (Span.seconds ~iter:probe_id "workloads.generate");
    counter "machine.block_cache_hit_ratio" "ratio";
    counter "machine.decoded_blocks" "count";
    m "machine.block_cache_speedup" "x" (p "machine.block_cache_speedup");
    m "os.baseline_host_ns_per_insn" "ns" (ns_per base_s it.main_insns);
    m "os.baseline_minor_words_per_insn" "words" (ratio base_w it.main_insns);
    counter "os.runtime_work_ns" "ns";
    counter "os.dram_accesses" "count";
    counter "mem.cow_copies" "count";
    counter "mem.checkpoint_count" "count";
    m "hash.xxh64_host_ns_per_kib" "ns/KiB" (p "hash.xxh64_host_ns_per_kib");
    m "core.protected_host_ns_per_insn" "ns" (ns_per prot_s prof_insns);
    m "core.protected_minor_words_per_insn" "words" (ratio prot_w prof_insns);
    m "core.protected_over_baseline_host" "x" (ratio prot_s base_s);
    m "core.raft_host_ns_per_insn" "ns" (ns_per raft_s it.main_insns);
    counter "core.comparator.bytes_hashed" "B";
    m ~clock:"sim" "core.comparator.bytes_hashed_per_insn" "B"
      (ratio (c "core.comparator.bytes_hashed") it.protected_insns);
    counter "core.comparator.page_hash_hit_ratio" "ratio";
    counter "core.comparator.pages_skipped_identical" "count";
    counter "core.dirty_pages" "count";
    counter "core.sim.record_self_ns" "ns";
    counter "core.sim.drain_self_ns" "ns";
  ]
  @ List.map (fun ph -> counter (Printf.sprintf "core.sim.%s_self_ns" ph) "ns") concurrent_phases
  @ [
      counter "core.segments" "count";
      counter "core.migrations" "count";
      counter "core.big_core_work_fraction" "ratio";
      counter "core.recoveries" "count";
      counter "core.detections" "count";
      m ~clock:"sim" "core.check_latency_samples" "count" (float_of_int it.sim.latency_samples);
      m "core.offline_host_ns_per_insn" "ns" (ns_per offline_s log_insns);
      counter "backend.batches" "count";
      counter "backend.max_lag_observed" "count";
      counter "backend.launch_overhead_ns" "ns";
      counter "seglog.bytes_written" "B";
      counter "seglog.compression_ratio" "x";
      m "seglog.encode_host_ns_per_raw_kib" "ns/KiB" (ns_per encode_s raw_kib);
      m "seglog.decode_host_ns_per_raw_kib" "ns/KiB" (ns_per decode_s raw_kib);
      counter "fleet.steals" "count";
      counter "fleet.migrations" "count";
      counter "fleet.queue_depth_p99" "count";
      counter "fleet.throughput_segments_per_s" "1/s";
      m "fleet.host_ns_per_insn" "ns" (ns_per fleet_s it.protected_insns);
      m "obs.trace_overhead_pct" "%" overhead_pct;
    ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    check "metric values" [ ("finite", false) ];
    "0"
  end

(* ---------------------------------------------------------------- *)
(* Driver *)

let setup_reps = 5
let min_timed = 3

let run ~(w : workload) ~seed ~seconds ~trace =
  let out_dir = ".ftbench" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tmp = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir tmp 0o755;
  (* Set-up, several times: program generation plus one warm-up
     iteration. *)
  let setups =
    List.init setup_reps (fun _ ->
        let id = new_iteration () in
        Span.record "setup" (fun () ->
            let programs = generate w ~seed in
            (id, programs, iterate w ~seed ~traced:false ~tmp programs)))
  in
  let _, programs, first = List.hd setups in
  (* Timed iterations, untraced, for [seconds] host seconds. *)
  let t0 = Unix.gettimeofday () in
  let rec timed acc n =
    if n >= min_timed && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else
      let id = new_iteration () in
      timed ((id, iterate w ~seed ~traced:false ~tmp programs) :: acc) (n + 1)
  in
  let timed = timed [] 0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let host_median = median (List.map (fun (id, _) -> Span.root ~iter:id "iteration") timed) in
  check "sim metrics repeat exactly"
    [
      ( "every untraced iteration at the seed has the same sim metrics",
        List.for_all (fun (_, _, (it : iteration)) -> it.sim = first.sim) setups
        && List.for_all (fun (_, (it : iteration)) -> it.sim = first.sim) timed );
    ];
  let layer =
    if not trace then []
    else begin
      let traced_id = new_iteration () in
      let traced = iterate w ~seed ~traced:true ~tmp programs in
      check "tracing leaves the simulation unchanged"
        [ ("traced sim metrics equal the untraced ones bit for bit", traced.sim = first.sim) ];
      let self_sum =
        sumf
          (fun ((s : Span.t), self) -> if s.Span.name = "reference" then 0. else self)
          (Span.self_times ~iter:traced_id)
      in
      check "span accounting"
        [
          ( "span self times sum to at most the iteration's host time",
            self_sum <= Span.root ~iter:traced_id "iteration" +. 1e-6 );
        ];
      (* Two more traced iterations, so the tracing overhead compares a
         median with a median. *)
      let more =
        List.init 2 (fun _ ->
            let id = new_iteration () in
            let it = iterate w ~seed ~traced:true ~tmp programs in
            check "tracing leaves the simulation unchanged"
              [ ("traced sim metrics equal the untraced ones bit for bit", it.sim = first.sim) ];
            Span.root ~iter:id "iteration")
      in
      let traced_median = median (Span.root ~iter:traced_id "iteration" :: more) in
      let probe_id = new_iteration () in
      let probe = Span.record "probes" (fun () -> probes w ~seed ~programs traced) in
      per_layer ~traced_id ~probe_id ~overhead_pct:(pct traced_median host_median) traced probe
    end
  in
  (* One more iteration on a held-out seed, so a claim can be re-checked
     on a seed not used while a change was written. *)
  let heldout = heldout_seed seed in
  let before = !failed in
  let _ = new_iteration () in
  let _ : iteration =
    Span.record "heldout" (fun () ->
        iterate w ~seed:heldout ~traced:false ~tmp (generate w ~seed:heldout))
  in
  let heldout_failed = !failed - before in
  Sys.rmdir tmp;
  Span.write
    (Filename.concat out_dir
       (Printf.sprintf "spans-%s-seed%Ld-trace%d.jsonl" w.name seed (Bool.to_int trace)));
  let metrics =
    if trace then layer else end_to_end ~setup_ids:(List.map (fun (id, _, _) -> id) setups) ~timed ~heap_mb first
  in
  let values =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "ftbench workload=%s seed=%Ld heldout_seed=%Ld scale=%g setups=%d timed=%d\n"
    w.name seed heldout w.scale setup_reps (List.length timed);
  List.iter
    (fun m -> Printf.printf "  %-42s %20.6f %-8s %s\n" m.name m.value m.unit_ m.clock)
    metrics;
  Printf.printf "check latency samples per iteration: %d\n" first.sim.latency_samples;
  Printf.printf "reference loop: lower quartile %.6f s over %d runs (reference_s %g s)\n"
    (quantile 0.25 (Span.roots "reference"))
    (List.length (Span.roots "reference"))
    reference_s;
  Printf.printf "heldout seed %Ld: %d operation(s) failed\n" heldout heldout_failed;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  Printf.printf "failed_frac %g (%d of %d operations)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (String.concat ", " values)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed iterations");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ftbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "ftbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
    exit 2
  | Some w ->
    run ~w ~seed:(Int64.of_int !seed) ~seconds:!seconds ~trace:(!trace = 1)
