(* Figures 5, 7 and 8 and §5.8: the overhead of Parallaft and RAFT over
   the baseline, per benchmark and as a geometric mean beside the
   paper's (Paper). Fig. 5 charts performance, Fig. 7 energy (and which
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

let chart metric ~label ~paper rows =
  print_string
    (Util.Table.grouped_bar_chart ~group_labels:[ "Parallaft"; "RAFT" ]
       (List.map
          (fun r ->
            ( Suite.short_name r.Suite.bench,
              per_system metric (fun s -> Suite.norm metric s r) ))
          rows
       @ [ ("geomean", per_system metric (fun s -> Suite.geomean metric s rows)) ]));
  print_newline ();
  geomean_line ~label metric ~paper rows

let fig5 ~platform ~scale ~quick =
  chart Suite.Perf ~label:"overhead" ~paper:(Paper.geomean Suite.Perf)
    (Suite.get ~platform ~scale ~quick)

let fig7 ~platform ~scale ~quick =
  let rows = Suite.get ~platform ~scale ~quick in
  chart Suite.Energy ~label:"energy overhead" ~paper:(Paper.geomean Suite.Energy) rows;
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

let fig8 ~platform ~scale ~quick =
  chart Suite.Memory ~label:"normalized memory" ~paper:(Paper.geomean Suite.Memory)
    (Suite.get ~platform ~scale ~quick)

let intel ~scale ~quick =
  let rows = Suite.get ~platform:Platform.intel_i7 ~scale ~quick in
  let cells metric r =
    List.map (Printf.sprintf "%.1f") (per_system metric (fun s -> Suite.norm metric s r))
  in
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
