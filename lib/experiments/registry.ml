type t = {
  name : string;
  title : string;
  run : scale:float -> quick:bool -> unit;
}

let all =
  [
    {
      name = "table1";
      title = "Table 1: comparison among processor fault-tolerance techniques";
      run =
        (fun ~scale ~quick ->
          Exp_tables.table1 ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "table2";
      title = "Table 2: error containment, detection and recovery";
      run = (fun ~scale:_ ~quick:_ -> Exp_tables.table2 ());
    };
    {
      name = "fig5";
      title = "Figure 5: performance overhead of Parallaft and RAFT";
      run =
        (fun ~scale ~quick ->
          Exp_overhead.fig5 ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig6";
      title = "Figure 6: performance-overhead breakdown of Parallaft";
      run =
        (fun ~scale ~quick ->
          Exp_breakdown.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig7";
      title = "Figure 7: energy overhead of Parallaft and RAFT";
      run =
        (fun ~scale ~quick ->
          Exp_overhead.fig7 ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig8";
      title = "Figure 8: normalized memory usage";
      run =
        (fun ~scale ~quick ->
          Exp_overhead.fig8 ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "fig9";
      title = "Figure 9: slicing-period performance tradeoffs";
      run =
        (fun ~scale ~quick:_ ->
          Exp_sweep.run ~platform:Platform.apple_m2 ~scale);
    };
    {
      name = "fig10";
      title = "Figure 10: error-injection results";
      run =
        (fun ~scale ~quick ->
          Exp_fault_injection.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "stress";
      title = "Section 5.7: syscall and signal handling overhead";
      run = (fun ~scale:_ ~quick:_ -> Exp_stress.run ());
    };
    {
      name = "intel";
      title = "Section 5.8: overhead on Intel x86_64";
      run = (fun ~scale ~quick -> Exp_overhead.intel ~scale ~quick);
    };
    {
      name = "fleet";
      title =
        "Fleet mode: multi-tenant throughput/latency/energy vs tenant count \
         (DESIGN.md §16)";
      run =
        (fun ~scale ~quick ->
          Exp_fleet.run ~platform:Platform.apple_m2 ~scale ~quick);
    };
    {
      name = "ablation";
      title = "Ablations: dirty tracking, scheduling (DESIGN.md §5)";
      run = (fun ~scale ~quick:_ -> Exp_ablation.run ~scale);
    };
    {
      name = "backends";
      title =
        "Checker backends: staleness vs recovery cost, remote chaos campaign \
         (DESIGN.md §18)";
      run = (fun ~scale:_ ~quick:_ -> Exp_backends.run ());
    };
    {
      name = "calibrate";
      title = "Calibration: per-benchmark little-core slowdowns";
      run =
        (fun ~scale ~quick:_ ->
          Exp_calibrate.run ~platform:Platform.apple_m2 ~scale);
    };
  ]

let names () = List.map (fun e -> e.name) all

let find which =
  match which with
  | "all" ->
    (* The paper's evaluation; our own extensions (calibration, ablations)
       are invoked by name. *)
    Some
      (List.filter
         (fun e ->
           e.name <> "calibrate" && e.name <> "ablation" && e.name <> "fleet"
           && e.name <> "backends")
         all)
  | name -> (
    match List.find_opt (fun e -> e.name = name) all with
    | Some e -> Some [ e ]
    | None -> None)

let run ~scale ~quick e =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" e.title;
  Printf.printf "==============================================================\n\n";
  e.run ~scale ~quick;
  print_newline ()
