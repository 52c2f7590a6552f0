type t = {
  name : string;
  title : string;
  run : unit -> unit;
}

let env () =
  let scale = Measure.scale_from_env () in
  let quick = Measure.quick_from_env () in
  (scale, quick)

let all () =
  let scale, quick = env () in
  [
    {
      name = "table1";
      title = "Table 1: comparison among processor fault-tolerance techniques";
      run = (fun () -> Exp_tables.table1 ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "table2";
      title = "Table 2: error containment, detection and recovery";
      run = (fun () -> Exp_tables.table2 ());
    };
    {
      name = "fig5";
      title = "Figure 5: performance overhead of Parallaft and RAFT";
      run = (fun () -> Exp_overhead.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig6";
      title = "Figure 6: performance-overhead breakdown of Parallaft";
      run = (fun () -> Exp_breakdown.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig7";
      title = "Figure 7: energy overhead of Parallaft and RAFT";
      run = (fun () -> Exp_energy.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig8";
      title = "Figure 8: normalized memory usage";
      run = (fun () -> Exp_memory.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig9";
      title = "Figure 9: slicing-period performance tradeoffs";
      run = (fun () -> Exp_sweep.run ~platform:Platform.apple_m2 ~scale);
    };
    {
      name = "fig10";
      title = "Figure 10: error-injection results";
      run = (fun () -> Exp_fault_injection.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "stress";
      title = "Section 5.7: syscall and signal handling overhead";
      run = (fun () -> Exp_stress.run ());
    };
    {
      name = "intel";
      title = "Section 5.8: overhead on Intel x86_64";
      run = (fun () -> Exp_intel.run ~scale ~quick);
    };
    {
      name = "fleet";
      title =
        "Fleet mode: multi-tenant throughput/latency/energy vs tenant count \
         (DESIGN.md §16)";
      run = (fun () -> Exp_fleet.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "ablation";
      title = "Ablations: dirty tracking, scheduling (DESIGN.md §5)";
      run = (fun () -> Exp_ablation.run ~scale);
    };
    {
      name = "backends";
      title =
        "Checker backends: staleness vs recovery cost, remote chaos campaign \
         (DESIGN.md §18)";
      run = (fun () -> Exp_backends.run ());
    };
    {
      name = "calibrate";
      title = "Calibration: per-benchmark little-core slowdowns";
      run =
        (fun () -> Exp_calibrate.run ~platform:Platform.apple_m2 ~scale);
    };
  ]

let names () = List.map (fun e -> e.name) (all ())

let find which =
  let exps = all () in
  match which with
  | "all" ->
    (* The paper's evaluation; our own extensions (calibration, ablations)
       are invoked by name. *)
    Some
      (List.filter
         (fun e ->
           e.name <> "calibrate" && e.name <> "ablation" && e.name <> "fleet"
           && e.name <> "backends")
         exps)
  | name -> (
    match List.find_opt (fun e -> e.name = name) exps with
    | Some e -> Some [ e ]
    | None -> None)

let run e =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" e.title;
  Printf.printf "==============================================================\n\n";
  e.run ();
  print_newline ()
