(* The experiments' one printer: each function prints on stdout the
   value its experiment's measurement returned (Registry pairs them).
   Nothing here runs a simulation; the paper's values come from Paper. *)

let pct = Printf.sprintf "%.1f"

(* Table 1's hardware/compiler rows are the paper's literature numbers
   (we cannot re-measure other people's hardware); the two runtime-based
   rows are measured by this reproduction, and the footer gives the
   paper's values for them. *)
let table1 rows =
  (* Memory, perf and energy overhead, from geomeans in the paper's
     units. *)
  let overheads geomean =
    [
      Printf.sprintf "%.0f%%" ((geomean Suite.Memory -. 1.0) *. 100.0);
      Printf.sprintf "%.1f%%" (geomean Suite.Perf);
      Printf.sprintf "%.1f%%" (geomean Suite.Energy);
    ]
  in
  let measured system metric =
    Suite.reported metric (Suite.geomean metric system rows)
  in
  Util.Table.print
    ~header:
      [ "approach"; "technique"; "hw?"; "src?"; "memory ovh"; "perf ovh"; "energy ovh" ]
    [
      [ "HW lock-stepping"; "TCLS / IBM / Cortex-R"; "Y"; "N"; "0%"; "~0%"; "~100%" ];
      [ "HW SMT"; "RMT / SRTR"; "Y"; "N"; "0%"; "32-60%"; "100%" ];
      [ "HW parallel hetero"; "ParaMedic"; "Y"; "N"; "0%"; "3%"; "16%" ];
      [ "Compiler thread-local"; "SWIFT / nZDC / InCheck"; "N"; "Y"; "~0%"; "45-197%"; "~100%" ];
      [ "Compiler RMT"; "DAFT / COMET / EXPERT"; "N"; "Y"; "~0%"; "38-400%"; "~100%" ];
      [ "Runtime async dup"; "RAFT (measured)"; "N"; "N" ] @ overheads (measured Suite.Raft);
      [ "Runtime parallel hetero"; "Parallaft (this repro)"; "N"; "N" ]
      @ overheads (measured Suite.Parallaft);
    ];
  let paper system = String.concat " / " (overheads (fun m -> Paper.geomean m system)) in
  Printf.printf "\nPaper's measured rows: RAFT %s — Parallaft %s\n" (paper Suite.Raft)
    (paper Suite.Parallaft)

let table2 () =
  Util.Table.print
    ~header:[ "capability"; "RAFT"; "Parallaft" ]
    [
      [ "Guaranteed error detection"; "No"; "Yes" ];
      [ "Error containment in SoR"; "No"; "Future work" ];
      [ "Error recovery possible?"; "No"; "Future work" ];
    ];
  print_newline ();
  print_endline
    "Rationale (§3.4): RAFT only compares at syscalls and its syscall\n\
     misspeculation rollback can overwrite the only copy of an erroneous\n\
     state with the speculative one, so errors can escape undetected.\n\
     Parallaft compares all modified state at every segment boundary, so\n\
     every error is detected within (max segment length) x (max live\n\
     segments); errors may still escape through eagerly-issued syscalls\n\
     before that bound (no containment), and rollback recovery is left\n\
     as future work.\n\
     This reproduction demonstrates the detection guarantee empirically\n\
     in the Figure 10 fault-injection campaign: no injection that\n\
     corrupts architectural state survives undetected."

(* Figures 5, 7 and 8 and §5.8: the overhead of Parallaft and RAFT over
   the baseline, per benchmark and as a geometric mean beside the
   paper's. Fig. 5 charts performance, Fig. 7 energy (and which
   benchmarks migrate checker work to big cores), Fig. 8 memory (PSS of
   main + checkers + runtime, sampled periodically, checkpoints
   excluded), all on the Apple M2. §5.8 tabulates performance and
   energy on the Intel platform, whose 4 KiB pages make checkpointing
   dearer and whose shared voltage rail erases most of the little
   cores' energy advantage; slicing there is by instruction count
   (rep-prefix caveat, §5.8). *)

let systems = [ Suite.Parallaft; Suite.Raft ]

(* [value] of Parallaft and of RAFT, in the paper's unit for [metric]. *)
let per_system metric value = List.map (fun s -> Suite.reported metric (value s)) systems

let show (metric : Suite.metric) v =
  match metric with
  | Memory -> Printf.sprintf "%.2fx" v
  | Perf | Energy -> Printf.sprintf "%.1f%%" v

(* "Geomean <label>: Parallaft <v>, RAFT <v> (paper: <v> / <v>)", the
   label padded to [width] so consecutive lines align. *)
let geomean_line ?(width = 0) ~label metric ~paper rows =
  let measured s =
    show metric (Suite.reported metric (Suite.geomean metric s rows))
  in
  let paper s = show metric (paper s) in
  Printf.printf "Geomean %-*s Parallaft %s, RAFT %s (paper: %s / %s)\n" width
    (label ^ ":") (measured Suite.Parallaft) (measured Suite.Raft) (paper Suite.Parallaft)
    (paper Suite.Raft)

let chart metric ~label rows =
  print_string
    (Util.Table.grouped_bar_chart ~group_labels:[ "Parallaft"; "RAFT" ]
       (List.map
          (fun r ->
            ( Suite.short_name r.Suite.bench,
              per_system metric (fun s -> Suite.norm metric s r) ))
          rows
       @ [ ("geomean", per_system metric (fun s -> Suite.geomean metric s rows)) ]));
  print_newline ();
  geomean_line ~label metric ~paper:(Paper.geomean metric) rows

let fig5 rows = chart Suite.Perf ~label:"overhead" rows

let fig7 rows =
  chart Suite.Energy ~label:"energy overhead" rows;
  (* The §5.2/§5.3 migration story: which benchmarks push checker work
     onto big cores. *)
  Printf.printf "\nChecker work done on big cores (migration, §4.5):\n";
  List.iter
    (fun r ->
      let frac = r.Suite.parallaft.Measure.big_core_work_fraction in
      if frac > 0.01 then
        Printf.printf "  %-12s %4.1f%%  (%d migrations)\n"
          (Suite.short_name r.Suite.bench)
          (100.0 *. frac) r.Suite.parallaft.Measure.migrations)
    rows

let fig8 rows = chart Suite.Memory ~label:"normalized memory" rows

let intel rows =
  let cells metric r = List.map pct (per_system metric (fun s -> Suite.norm metric s r)) in
  Util.Table.print
    ~header:[ "benchmark"; "parallaft perf%"; "raft perf%"; "parallaft energy%"; "raft energy%" ]
    (List.map
       (fun r ->
         (Suite.short_name r.Suite.bench :: cells Suite.Perf r) @ cells Suite.Energy r)
       rows);
  print_newline ();
  let width = String.length "energy overhead:" in
  geomean_line ~width ~label:"perf overhead" Suite.Perf ~paper:Paper.intel_perf rows;
  geomean_line ~width ~label:"energy overhead" Suite.Energy ~paper:Paper.intel_energy
    rows

(* Figure 6: Parallaft's overhead split as §5.2.1 prescribes
   (Measure.breakdown). The total is Fig. 5's Parallaft overhead.
   Nothing is clamped: contention is negative on some benchmarks, and
   the chart draws only the positive components but labels each bar
   with the total. *)
let fig6 rows =
  let rows =
    List.map
      (fun (r : Suite.row) ->
        ( Suite.short_name r.bench,
          Measure.breakdown ~baseline:r.baseline ~measured:r.parallaft ))
      rows
  in
  print_string
    (Util.Table.stacked_bar_chart
       ~component_labels:
         [ "runtime work"; "last-checker sync"; "resource contention"; "fork+COW" ]
       (List.map
          (fun (name, (b : Measure.breakdown)) ->
            (name, [ b.runtime_work; b.sync; b.contention; b.fork_cow ]))
          rows));
  print_newline ();
  Util.Table.print
    ~header:[ "benchmark"; "runtime%"; "sync%"; "contention%"; "fork+COW%"; "total%" ]
    (List.map
       (fun (name, (b : Measure.breakdown)) ->
         name
         :: List.map pct [ b.runtime_work; b.sync; b.contention; b.fork_cow; b.total ])
       rows)

(* Figure 9: three series over Exp_sweep's grid, then each benchmark's
   sweet spot (paper: gcc 2B, mcf 5B, sjeng 20B). *)
let fig9 table =
  let print_series title proj =
    Printf.printf "%s\n" title;
    Util.Table.print
      ~header:("benchmark" :: List.map fst Exp_sweep.periods)
      (List.map
         (fun (name, points) -> name :: List.map (fun (_, pt) -> pct (proj pt)) points)
         table);
    print_newline ()
  in
  print_series "(a) Forking-and-COW overhead (%) vs slicing period" (fun p ->
      p.Measure.fork_cow);
  print_series "(b) Last-checker-sync overhead (%) vs slicing period" (fun p ->
      p.Measure.sync);
  print_series "(c) Combined performance overhead (%) vs slicing period" (fun p ->
      p.Measure.total);
  List.iter
    (fun (name, points) ->
      let best =
        List.fold_left
          (fun (bl, bv) (l, (pt : Measure.breakdown)) ->
            if pt.total < bv then (l, pt.total) else (bl, bv))
          ("?", infinity) points
      in
      Printf.printf "sweet spot for %-12s %s cycles (%.1f%% total overhead)\n" name
        (fst best) (snd best))
    table

(* Figure 10: the checker-register campaign per benchmark, then the
   target x recovery grid on the first. *)
let fig10 (r : Exp_fault_injection.result) =
  let module FI = Exp_fault_injection in
  let share col t =
    let n = List.length t in
    if n = 0 then 0.0 else 100.0 *. float_of_int (FI.count col t) /. float_of_int n
  in
  Util.Table.print
    ~header:[ "benchmark"; "detected%"; "exception%"; "timeout%"; "benign%"; "sdc"; "n" ]
    (List.map
       (fun (bench, t) ->
         Suite.short_name bench
         :: List.map
              (fun col -> Printf.sprintf "%.0f" (share col t))
              [ FI.Detected; FI.Exception; FI.Timeout; FI.Benign ]
         @ [ string_of_int (FI.sdc t); string_of_int (List.length t) ])
       r.campaigns);
  let totals = List.concat_map snd r.campaigns in
  Printf.printf
    "\nOverall: %.1f%% benign (paper: %.1f%%); every non-benign fault detected\n\
     (detected %.1f%%, exception %.1f%%, timeout %.1f%%; %d landed injections; \
     sdc = %d)\n"
    (share FI.Benign totals) Paper.benign_pct (share FI.Detected totals)
    (share FI.Exception totals) (share FI.Timeout totals) (List.length totals)
    (FI.sdc totals);
  Printf.printf "\nFault-model grid (%s, re-check + watchdog on):\n"
    (Suite.short_name (fst (List.hd r.campaigns)));
  Util.Table.print
    ~header:
      [ "target"; "recovery"; "landed"; "detected"; "transient"; "recovered"; "hard";
        "benign"; "sdc" ]
    (List.map
       (fun (kind, recovery, t) ->
         kind
         :: (if recovery then "on" else "off")
         :: List.map string_of_int
              [
                List.length t;
                FI.count FI.Detected t + FI.count FI.Exception t + FI.count FI.Timeout t;
                FI.count FI.Transient t;
                FI.recovered t;
                FI.count FI.Hard t;
                FI.count FI.Benign t;
                FI.sdc t;
              ])
       r.grid);
  let grid = List.concat_map (fun (_, _, t) -> t) r.grid in
  Printf.printf "\nGrid: %d landed (%d transient, %d recovered, %d hard); sdc = %d\n"
    (List.length grid) (FI.count FI.Transient grid) (FI.recovered grid)
    (FI.count FI.Hard grid) (FI.sdc grid)

let stress (measured : Paper.stress) =
  Util.Table.print
    ~header:[ "stress test"; "slowdown"; "paper" ]
    (List.map
       (fun (test, measured, paper) ->
         [ test; Printf.sprintf "%.1fx" measured; Printf.sprintf "%.1fx" paper ])
       [
         ("getpid loop", measured.getpid, Paper.stress.getpid);
         ("1 MiB /dev/zero reads", measured.devzero, Paper.stress.devzero);
         ("SIGUSR1 storm", measured.sigusr1, Paper.stress.sigusr1);
       ])

let ms digits ns = Printf.sprintf "%.*f ms" digits (ns /. 1e6)

(* Fleet mode: the closed loop against serial runs, then the open
   loop's admission policies (latency is admission to completion). *)
let fleet (f : Exp_fleet.t) =
  Util.Table.print
    ~header:
      [ "tenants"; "fleet wall"; "serial wall"; "speedup"; "verified"; "steals";
        "seg/s"; "energy" ]
    (List.map
       (fun (n, (fleet : Fleet.report), serial) ->
         [
           string_of_int n;
           ms 2 (float_of_int fleet.Fleet.wall_ns);
           ms 2 serial;
           Printf.sprintf "%.2fx" (serial /. float_of_int (max 1 fleet.Fleet.wall_ns));
           string_of_int fleet.Fleet.segments_verified;
           string_of_int fleet.Fleet.steals;
           Printf.sprintf "%.0f" fleet.Fleet.throughput_segments_per_s;
           Printf.sprintf "%.3f J" fleet.Fleet.energy_j;
         ])
       f.closed);
  print_newline ();
  Util.Table.print
    ~header:[ "policy"; "arrivals"; "admitted"; "rejected"; "mean latency"; "seg/s" ]
    (List.map
       (fun (name, (r : Fleet.report)) ->
         [
           name;
           string_of_int f.arrivals;
           string_of_int r.Fleet.admitted;
           string_of_int r.Fleet.rejected;
           Printf.sprintf "%.2f ms" (Exp_fleet.mean_latency_ms r);
           Printf.sprintf "%.0f" r.Fleet.throughput_segments_per_s;
         ])
       f.open_loop)

(* Ablations (DESIGN.md §5): one table per design decision, each cell
   measured against the benchmark's baseline. *)
let ablation (a : Exp_ablation.t) =
  let perf header =
    (header, fun ~baseline m -> pct (Measure.overhead_pct ~baseline ~measured:m))
  in
  let energy =
    ( "energy %",
      fun ~baseline m ->
        pct
          (Util.Stats.percentage_overhead ~baseline:baseline.Measure.energy_j
             ~measured:m.Measure.energy_j) )
  in
  let table ~title ~kind ~columns (t : Exp_ablation.table) =
    print_endline title;
    Util.Table.print
      ~header:(kind :: List.map fst columns)
      (List.map
         (fun (label, m) ->
           label :: List.map (fun (_, cell) -> cell ~baseline:t.baseline m) columns)
         t.variants);
    print_newline ()
  in
  table ~kind:"backend" a.tracking
    ~title:
      (Printf.sprintf "A. Dirty-page tracking backend (benchmark: %s)" a.tracking.bench)
    ~columns:
      [
        perf "perf overhead %";
        ( "bytes hashed",
          fun ~baseline:_ m ->
            Printf.sprintf "%.1f MB" (float_of_int m.Measure.bytes_hashed /. 1e6) );
        ("false positives", fun ~baseline:_ m -> string_of_int m.Measure.detections);
      ];
  table ~kind:"scheduler" a.scheduling
    ~title:
      (Printf.sprintf "B. Checker scheduling and pacing (benchmark: %s)"
         a.scheduling.bench)
    ~columns:
      [
        perf "perf %";
        energy;
        ("sync %", fun ~baseline m -> pct (Measure.breakdown ~baseline ~measured:m).sync);
        ("migrations", fun ~baseline:_ m -> string_of_int m.Measure.migrations);
      ];
  table ~kind:"pacer" a.pacing
    ~title:
      (Printf.sprintf "B'. DVFS pacing on a compute-bound benchmark (%s)" a.pacing.bench)
    ~columns:[ perf "perf %"; energy ]

(* Checker backends (DESIGN.md §18): every run printed here passed its
   oracle assertion in Exp_backends. *)
let backends (b : Exp_backends.t) =
  let module P = Parallaft in
  let wall (r : P.Runtime.report) = ms 3 (float_of_int r.P.Runtime.wall_ns) in
  let d = b.deferred.P.Runtime.stats.P.Stats.backend in
  Printf.printf
    "Deferred sanity: batch 2, max_lag 4 — observables = inline, %d/%d \
     verified in %d batches (max lag %d), no leaked pids.\n"
    d.P.Stats.b_verified b.deferred.P.Runtime.stats.P.Stats.segments_total
    d.P.Stats.b_batches d.P.Stats.b_max_lag;
  print_newline ();
  Printf.printf
    "Staleness vs recovery cost: deferred backend, batch 2, recovery on,\n\
     one main-memory fault at segment 6 (page 6 bit 6, +50 insns).\n\n";
  Util.Table.print
    ~header:
      [ "max_lag"; "clean wall"; "faulted wall"; "rollback cost"; "re-executed";
        "dup output"; "recoveries"; "max lag seen" ]
    (List.map
       (fun (max_lag, (clean : P.Runtime.report), (faulted : P.Runtime.report)) ->
         let cs = clean.P.Runtime.stats and fs = faulted.P.Runtime.stats in
         (* A rollback re-emits externalized writes: the oracle compares
            no output after one, and "dup output" counts the bytes. *)
         [
           string_of_int max_lag;
           wall clean;
           wall faulted;
           ms 3 (float_of_int (faulted.P.Runtime.wall_ns - clean.P.Runtime.wall_ns));
           string_of_int (fs.P.Stats.segments_total - cs.P.Stats.segments_total);
           Printf.sprintf "%d B"
             (String.length faulted.P.Runtime.output - String.length clean.P.Runtime.output);
           string_of_int fs.P.Stats.recoveries;
           string_of_int fs.P.Stats.backend.P.Stats.b_max_lag;
         ])
       b.staleness);
  print_newline ();
  Printf.printf
    "Chaos campaign: remote backend, 3 nodes, retry budget 6. Every row\n\
     is asserted exactly-once, sdc=0 vs the fault-free inline reference,\n\
     >=1 re-dispatch, and zero leaked pids — a failed assertion aborts\n\
     the experiment.\n\n";
  Util.Table.print
    ~header:
      [ "intensity"; "crash/stall/late/pre %"; "verified"; "redispatched"; "expired";
        "stale"; "wall" ]
    (List.map
       (fun (label, (c : P.Config.chaos), (r : P.Runtime.report)) ->
         let s = r.P.Runtime.stats.P.Stats.backend in
         [
           label;
           Printf.sprintf "%d/%d/%d/%d" c.crash_pct c.stall_pct c.late_pct c.prelaunch_pct;
           Printf.sprintf "%d/%d" s.P.Stats.b_verified
             r.P.Runtime.stats.P.Stats.segments_total;
           string_of_int s.P.Stats.b_redispatched;
           string_of_int s.P.Stats.b_leases_expired;
           string_of_int s.P.Stats.b_stale_verdicts;
           wall r;
         ])
       b.chaos)

let calibrate (c : Exp_calibrate.t) =
  Printf.printf "## Calibration (%s, scale %.2f)\n\n" c.platform.Platform.name c.scale;
  Util.Table.print
    ~header:
      [ "benchmark"; "inputs"; "big ms (1 input)"; "little ms"; "slowdown"; "data pages" ]
    (List.map
       (fun (r : Exp_calibrate.row) ->
         [
           r.bench.Workloads.Spec.name;
           string_of_int r.bench.Workloads.Spec.inputs;
           Printf.sprintf "%.2f" (float_of_int r.big_wall_ns /. 1e6);
           Printf.sprintf "%.2f" (float_of_int r.little_wall_ns /. 1e6);
           Printf.sprintf "%.2f"
             (float_of_int r.little_wall_ns /. float_of_int (max 1 r.big_wall_ns));
           string_of_int r.data_pages;
         ])
       c.rows)
