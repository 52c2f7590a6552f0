(* Smoke and property tests of the experiment harness. These run tiny
   configurations (testing platform or heavily scaled-down workloads) so
   the suite stays fast while still exercising the measurement paths. *)

let platform = Platform.testing

let tiny_bench =
  (* A 2-input pseudo-benchmark for measurement tests. *)
  {
    Workloads.Spec.name = "999.tiny";
    category = Workloads.Spec.Int_suite;
    inputs = 2;
    description = "test workload";
    base_outer = 12;
    spec =
      {
        Workloads.Codegen.pattern =
          Workloads.Codegen.Chase { pages = 8; hot_pages = 3; cold_every = 2 };
        alu_per_mem = 3;
        store_every = 2;
        outer_iters = 12;
        inner_iters = 30;
        io_every = 3;
        gettime_every = 0;
        rdtsc_every = 0;
        mmap_churn = false;
      };
  }

let test_baseline_metrics () =
  let m =
    Experiments.Measure.run_benchmark ~platform ~mode:Experiments.Measure.Baseline
      ~scale:1.0 tiny_bench
  in
  Alcotest.(check bool) "outputs ok" true m.Experiments.Measure.outputs_ok;
  Alcotest.(check bool) "wall positive" true (m.Experiments.Measure.wall_ns > 0.0);
  Alcotest.(check bool) "energy positive" true (m.Experiments.Measure.energy_j > 0.0);
  Alcotest.(check bool) "pss sampled" true (m.Experiments.Measure.mean_pss_bytes > 0.0);
  Alcotest.(check int) "no segments in baseline" 0 m.Experiments.Measure.segments

let test_protected_metrics () =
  let config = Parallaft.Config.parallaft ~platform ~slice_period:20_000 () in
  let m =
    Experiments.Measure.run_benchmark ~platform
      ~mode:(Experiments.Measure.Protected config) ~scale:1.0 tiny_bench
  in
  Alcotest.(check bool) "outputs ok" true m.Experiments.Measure.outputs_ok;
  Alcotest.(check int) "no detections" 0 m.Experiments.Measure.detections;
  Alcotest.(check bool) "sliced" true (m.Experiments.Measure.segments > 0);
  Alcotest.(check bool) "protected costs more" true
    (m.Experiments.Measure.wall_ns > 0.0)

let test_overhead_positive () =
  let baseline =
    Experiments.Measure.run_benchmark ~platform ~mode:Experiments.Measure.Baseline
      ~scale:1.0 tiny_bench
  in
  let config = Parallaft.Config.parallaft ~platform ~slice_period:20_000 () in
  let p =
    Experiments.Measure.run_benchmark ~platform
      ~mode:(Experiments.Measure.Protected config) ~scale:1.0 tiny_bench
  in
  Alcotest.(check bool) "overhead > 0" true
    (Experiments.Measure.overhead_pct ~baseline ~measured:p > 0.0)

let test_protected_memory_exceeds_baseline () =
  let baseline =
    Experiments.Measure.run_benchmark ~platform ~mode:Experiments.Measure.Baseline
      ~scale:1.0 tiny_bench
  in
  let config = Parallaft.Config.parallaft ~platform ~slice_period:20_000 () in
  let p =
    Experiments.Measure.run_benchmark ~platform
      ~mode:(Experiments.Measure.Protected config) ~scale:1.0 tiny_bench
  in
  Alcotest.(check bool) "replication costs memory" true
    (p.Experiments.Measure.mean_pss_bytes
    > baseline.Experiments.Measure.mean_pss_bytes)

let test_registry_complete () =
  let names = Experiments.Registry.names () in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true (List.mem expected names))
    [ "table1"; "table2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
      "stress"; "intel"; "fleet"; "ablation"; "backends"; "calibrate" ];
  Alcotest.(check bool) "unknown rejected" true (Experiments.Registry.find "fig99" = None);
  match Experiments.Registry.find "all" with
  | Some exps ->
    Alcotest.(check (list string)) "all runs the paper's experiments in order"
      [ "table1"; "table2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
        "stress"; "intel" ]
      (List.map (fun e -> e.Experiments.Registry.name) exps)
  | None -> Alcotest.fail "all missing"

let test_suite_shortnames () =
  List.iter
    (fun b ->
      let short = Experiments.Suite.short_name b in
      Alcotest.(check bool)
        (b.Workloads.Spec.name ^ " short name has no number")
        true
        (not (String.contains short '.')))
    Workloads.Spec.all

let test_quick_set_subset () =
  let quick = Experiments.Suite.benchmarks ~quick:true in
  let full = Experiments.Suite.benchmarks ~quick:false in
  Alcotest.(check bool) "quick smaller" true (List.length quick < List.length full);
  Alcotest.(check int) "full is whole suite" 16 (List.length full);
  List.iter
    (fun b -> Alcotest.(check bool) "quick subset of full" true (List.mem b full))
    quick

(* Fig. 6's breakdown is unclamped: runtime work is what fork+COW,
   contention and sync leave of the measured overhead, so the four
   components sum to the total Fig. 5 reports, even where one of them is
   negative. *)
let test_breakdown_sums_to_total () =
  let baseline =
    Experiments.Measure.run_benchmark ~platform ~mode:Experiments.Measure.Baseline
      ~scale:1.0 tiny_bench
  in
  let config = Parallaft.Config.parallaft ~platform ~slice_period:20_000 () in
  let measured =
    Experiments.Measure.run_benchmark ~platform
      ~mode:(Experiments.Measure.Protected config) ~scale:1.0 tiny_bench
  in
  let b = Experiments.Measure.breakdown ~baseline ~measured in
  Alcotest.(check (float 1e-9)) "total is the measured overhead"
    (Experiments.Measure.overhead_pct ~baseline ~measured)
    b.total;
  Alcotest.(check (float 1e-9)) "components sum to the total" b.total
    (b.runtime_work +. b.sync +. b.contention +. b.fork_cow)

(* The fault model end to end: the full target x recovery grid (quick
   trial counts) on the first quick benchmark. No fault may get through
   silently, and both hardened responses, the transient re-check and
   rollback recovery, must actually trigger. Under PARALLAFT_INVARIANTS=1
   (`make invariants`) every routed event also sweeps the run-structure
   invariants. *)
let test_fault_grid_no_sdc () =
  let module FI = Experiments.Exp_fault_injection in
  let bench = List.hd (Experiments.Suite.benchmarks ~quick:true) in
  let totals =
    FI.grid ~platform ~scale:(FI.fi_scale 1.0) ~quick:true
      ~rng:(Util.Rng.create ~seed:0x5A0CEL) bench
    |> List.concat_map (fun (_, _, tally) -> tally)
  in
  Printf.printf "sdc=%d transient=%d recovered=%d hard=%d benign=%d\n"
    (FI.sdc totals) (FI.count FI.Transient totals) (FI.recovered totals)
    (FI.count FI.Hard totals) (FI.count FI.Benign totals);
  Alcotest.(check int) "sdc = 0" 0 (FI.sdc totals);
  Alcotest.(check bool) "transient >= 1" true (FI.count FI.Transient totals >= 1);
  Alcotest.(check bool) "recovered >= 1" true (FI.recovered totals >= 1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "experiments"
    [
      ( "measure",
        [
          tc "baseline metrics" `Quick test_baseline_metrics;
          tc "protected metrics" `Quick test_protected_metrics;
          tc "overhead positive" `Quick test_overhead_positive;
          tc "memory exceeds baseline" `Quick test_protected_memory_exceeds_baseline;
          tc "breakdown sums to total" `Quick test_breakdown_sums_to_total;
        ] );
      ( "fault model",
        [ tc "grid: no SDC, both responses fire" `Slow test_fault_grid_no_sdc ] );
      ( "registry",
        [
          tc "complete" `Quick test_registry_complete;
          tc "short names" `Quick test_suite_shortnames;
          tc "quick subset" `Quick test_quick_set_subset;
        ] );
    ]
