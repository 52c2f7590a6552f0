(* Ablations of the design decisions DESIGN.md §5 calls out. Not a paper
   figure — these quantify why Parallaft is built the way it is:

   A. Dirty-page tracking backend: soft-dirty vs map-count vs the naive
      full-memory comparison (bytes hashed per run explode without
      modified-page tracking — the §4.4 motivation).
   B. Checker scheduling: disabling big-core migration and DVFS pacing
      (checkers fall behind on memory-bound benchmarks, inflating
      last-checker sync; pacing off wastes little-core energy). *)

let platform = Platform.apple_m2

let bench name =
  match Workloads.Spec.find name with
  | Some b -> b
  | None -> invalid_arg ("unknown benchmark " ^ name)

let measure ~config b ~scale =
  Measure.run_benchmark ~platform ~mode:(Measure.Protected config) ~scale b

let dirty_backend_ablation ~scale =
  (* libquantum writes ~10% of its large footprint per pass, so modified-
     page tracking saves most of the comparison work; a write-everything
     benchmark would mask the difference. *)
  print_endline "A. Dirty-page tracking backend (benchmark: 462.libquantum)";
  let b = bench "462.libquantum" in
  let baseline = Measure.run_benchmark ~platform ~mode:Measure.Baseline ~scale b in
  let rows =
    List.map
      (fun (label, backend) ->
        let config =
          { (Parallaft.Config.parallaft ~platform ()) with
            Parallaft.Config.dirty_backend = backend }
        in
        let r =
          Parallaft.Runtime.run_protected ~platform ~config
            ~program:
              (List.hd
                 (Workloads.Spec.programs b ~page_size:platform.Platform.page_size
                    ~scale))
            ()
        in
        [
          label;
          Printf.sprintf "%.1f"
            (Util.Stats.percentage_overhead ~baseline:baseline.Measure.wall_ns
               ~measured:(float_of_int r.Parallaft.Runtime.wall_ns));
          Printf.sprintf "%.1f MB"
            (float_of_int r.Parallaft.Runtime.stats.Parallaft.Stats.bytes_hashed
            /. 1e6);
          string_of_int (List.length r.Parallaft.Runtime.detections);
        ])
      [
        ("soft-dirty (x86_64 path)", Parallaft.Config.Soft_dirty);
        ("map-count (PAGEMAP_SCAN path)", Parallaft.Config.Map_count);
        ("full comparison (no tracking)", Parallaft.Config.Full_compare);
      ]
  in
  Util.Table.print
    ~header:[ "backend"; "perf overhead %"; "bytes hashed"; "false positives" ]
    rows;
  print_newline ()

let scheduling_ablation ~scale =
  print_endline "B. Checker scheduling and pacing (benchmark: 470.lbm)";
  let b = bench "470.lbm" in
  let baseline = Measure.run_benchmark ~platform ~mode:Measure.Baseline ~scale b in
  let rows =
    List.map
      (fun (label, migration, dvfs_pacing) ->
        let config =
          { (Parallaft.Config.parallaft ~platform ()) with
            Parallaft.Config.migration; dvfs_pacing }
        in
        let m = measure ~config b ~scale in
        [
          label;
          Printf.sprintf "%.1f" (Measure.overhead_pct ~baseline ~measured:m);
          Printf.sprintf "%.1f"
            (Util.Stats.percentage_overhead ~baseline:baseline.Measure.energy_j
               ~measured:m.Measure.energy_j);
          Printf.sprintf "%.1f"
            (100.0
            *. (m.Measure.wall_ns -. m.Measure.main_wall_ns)
            /. baseline.Measure.wall_ns);
          string_of_int m.Measure.migrations;
        ])
      [
        ("full (paper config)", true, true);
        ("no big-core migration", false, true);
        ("no DVFS pacing", true, false);
        ("neither", false, false);
      ]
  in
  Util.Table.print
    ~header:[ "scheduler"; "perf %"; "energy %"; "sync %"; "migrations" ]
    rows;
  print_endline
    "(An honest model finding: on lbm, disabling migration trades a large\n\
     last-checker-sync debt against big-L2 pollution from migrated\n\
     checkers, and the two roughly cancel in this cost model; the paper's\n\
     hardware sees a clearer win for migration.)";
  print_newline ();
  (* DVFS pacing matters on compute-bound benchmarks, where checkers keep
     up easily and the cluster can idle down. *)
  print_endline "B'. DVFS pacing on a compute-bound benchmark (458.sjeng)";
  let b = bench "458.sjeng" in
  let baseline = Measure.run_benchmark ~platform ~mode:Measure.Baseline ~scale b in
  let rows =
    List.map
      (fun (label, dvfs_pacing) ->
        let config =
          { (Parallaft.Config.parallaft ~platform ()) with
            Parallaft.Config.dvfs_pacing }
        in
        let m = measure ~config b ~scale in
        [
          label;
          Printf.sprintf "%.1f" (Measure.overhead_pct ~baseline ~measured:m);
          Printf.sprintf "%.1f"
            (Util.Stats.percentage_overhead ~baseline:baseline.Measure.energy_j
               ~measured:m.Measure.energy_j);
        ])
      [ ("pacing on (paper config)", true); ("little cores pinned to max", false) ]
  in
  Util.Table.print ~header:[ "pacer"; "perf %"; "energy %" ] rows;
  print_newline ()

let run ~scale =
  dirty_backend_ablation ~scale;
  scheduling_ablation ~scale
