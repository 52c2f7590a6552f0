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

(* One benchmark's baseline and its run under each labelled config. *)
type table = {
  bench : string;
  baseline : Measure.metrics;
  variants : (string * Measure.metrics) list;
}

let variant_table ~scale bench variants =
  let b =
    match Workloads.Spec.find bench with
    | Some b -> b
    | None -> invalid_arg ("unknown benchmark " ^ bench)
  in
  let run mode = Measure.run_benchmark ~platform ~mode ~scale b in
  let baseline = run Measure.Baseline in
  {
    bench;
    baseline;
    variants =
      List.map (fun (label, config) -> (label, run (Measure.Protected config))) variants;
  }

type t = { tracking : table; scheduling : table; pacing : table }

let measure ~scale =
  (* libquantum writes ~10% of its large footprint per pass, so modified-
     page tracking saves most of the comparison work; a write-everything
     benchmark would mask the difference. *)
  let tracking =
    variant_table ~scale "462.libquantum"
      (List.map
         (fun (label, dirty_backend) ->
           (label, { paper_config with Parallaft.Config.dirty_backend }))
         [
           ("soft-dirty (x86_64 path)", Parallaft.Config.Soft_dirty);
           ("map-count (PAGEMAP_SCAN path)", Parallaft.Config.Map_count);
           ("full comparison (no tracking)", Parallaft.Config.Full_compare);
         ])
  in
  let scheduling =
    variant_table ~scale "470.lbm"
      (List.map
         (fun (label, migration, dvfs_pacing) ->
           (label, { paper_config with Parallaft.Config.migration; dvfs_pacing }))
         [
           ("full (paper config)", true, true);
           ("no big-core migration", false, true);
           ("no DVFS pacing", true, false);
           ("neither", false, false);
         ])
  in
  (* DVFS pacing matters on compute-bound benchmarks, where checkers keep
     up easily and the cluster can idle down. *)
  let pacing =
    variant_table ~scale "458.sjeng"
      (List.map
         (fun (label, dvfs_pacing) ->
           (label, { paper_config with Parallaft.Config.dvfs_pacing }))
         [ ("pacing on (paper config)", true); ("little cores pinned to max", false) ])
  in
  { tracking; scheduling; pacing }
