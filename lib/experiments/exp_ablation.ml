(* Ablations of the design decisions DESIGN.md §5 calls out. Not a paper
   figure — these quantify why Parallaft is built the way it is:

   A. Dirty-page tracking backend: soft-dirty vs map-count vs the naive
      full-memory comparison (bytes hashed per run explode without
      modified-page tracking — the §4.4 motivation).
   B. Checker scheduling: disabling big-core migration and DVFS pacing
      (checkers fall behind on memory-bound benchmarks, inflating
      last-checker sync; pacing off wastes little-core energy). *)

let platform = Platform.apple_m2
let paper_config = Parallaft.Config.parallaft ~platform ()

(* A column: its header and its cell for a variant, measured against
   the benchmark's baseline. *)
let pct = Printf.sprintf "%.1f"
let perf header = (header, fun ~baseline m -> pct (Measure.overhead_pct ~baseline ~measured:m))

let energy =
  ( "energy %",
    fun ~baseline m ->
      pct
        (Util.Stats.percentage_overhead ~baseline:baseline.Measure.energy_j
           ~measured:m.Measure.energy_j) )

let sync = ("sync %", fun ~baseline m -> pct (Measure.breakdown ~baseline ~measured:m).sync)
let migrations = ("migrations", fun ~baseline:_ m -> string_of_int m.Measure.migrations)

let bytes_hashed =
  ( "bytes hashed",
    fun ~baseline:_ m ->
      Printf.sprintf "%.1f MB" (float_of_int m.Measure.bytes_hashed /. 1e6) )

let false_positives =
  ("false positives", fun ~baseline:_ m -> string_of_int m.Measure.detections)

(* One table: [bench] under each labelled config, one row per variant,
   each cell measured against the benchmark's baseline. *)
let variant_table ~scale ~title ~bench ~kind ~columns variants =
  print_endline title;
  let b =
    match Workloads.Spec.find bench with
    | Some b -> b
    | None -> invalid_arg ("unknown benchmark " ^ bench)
  in
  let run mode = Measure.run_benchmark ~platform ~mode ~scale b in
  let baseline = run Measure.Baseline in
  Util.Table.print
    ~header:(kind :: List.map fst columns)
    (List.map
       (fun (label, config) ->
         let m = run (Measure.Protected config) in
         label :: List.map (fun (_, cell) -> cell ~baseline m) columns)
       variants);
  print_newline ()

let run ~scale =
  (* libquantum writes ~10% of its large footprint per pass, so modified-
     page tracking saves most of the comparison work; a write-everything
     benchmark would mask the difference. *)
  variant_table ~scale ~title:"A. Dirty-page tracking backend (benchmark: 462.libquantum)"
    ~bench:"462.libquantum" ~kind:"backend"
    ~columns:[ perf "perf overhead %"; bytes_hashed; false_positives ]
    (List.map
       (fun (label, dirty_backend) ->
         (label, { paper_config with Parallaft.Config.dirty_backend }))
       [
         ("soft-dirty (x86_64 path)", Parallaft.Config.Soft_dirty);
         ("map-count (PAGEMAP_SCAN path)", Parallaft.Config.Map_count);
         ("full comparison (no tracking)", Parallaft.Config.Full_compare);
       ]);
  variant_table ~scale ~title:"B. Checker scheduling and pacing (benchmark: 470.lbm)"
    ~bench:"470.lbm" ~kind:"scheduler"
    ~columns:[ perf "perf %"; energy; sync; migrations ]
    (List.map
       (fun (label, migration, dvfs_pacing) ->
         (label, { paper_config with Parallaft.Config.migration; dvfs_pacing }))
       [
         ("full (paper config)", true, true);
         ("no big-core migration", false, true);
         ("no DVFS pacing", true, false);
         ("neither", false, false);
       ]);
  (* DVFS pacing matters on compute-bound benchmarks, where checkers keep
     up easily and the cluster can idle down. *)
  variant_table ~scale ~title:"B'. DVFS pacing on a compute-bound benchmark (458.sjeng)"
    ~bench:"458.sjeng" ~kind:"pacer" ~columns:[ perf "perf %"; energy ]
    (List.map
       (fun (label, dvfs_pacing) ->
         (label, { paper_config with Parallaft.Config.dvfs_pacing }))
       [ ("pacing on (paper config)", true); ("little cores pinned to max", false) ])
