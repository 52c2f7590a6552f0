type t = {
  name : string;
  title : string;
  run : scale:float -> quick:bool -> unit;
}

(* An experiment is a measurement and the Render function that prints
   the value it returns. *)
let experiment name title (measure : scale:float -> quick:bool -> 'a)
    (print : 'a -> unit) =
  { name; title; run = (fun ~scale ~quick -> print (measure ~scale ~quick)) }

let apple_m2 = Platform.apple_m2
let suite = Suite.get ~platform:apple_m2

(* The paper's evaluation, in print order: what "all" runs. *)
let paper =
  [
    experiment "table1" "Table 1: comparison among processor fault-tolerance techniques"
      suite Render.table1;
    experiment "table2" "Table 2: error containment, detection and recovery"
      (fun ~scale:_ ~quick:_ -> ())
      Render.table2;
    experiment "fig5" "Figure 5: performance overhead of Parallaft and RAFT" suite
      Render.fig5;
    experiment "fig6" "Figure 6: performance-overhead breakdown of Parallaft" suite
      Render.fig6;
    experiment "fig7" "Figure 7: energy overhead of Parallaft and RAFT" suite Render.fig7;
    experiment "fig8" "Figure 8: normalized memory usage" suite Render.fig8;
    experiment "fig9" "Figure 9: slicing-period performance tradeoffs"
      (fun ~scale ~quick:_ -> Exp_sweep.grid ~platform:apple_m2 ~scale ())
      Render.fig9;
    experiment "fig10" "Figure 10: error-injection results"
      (Exp_fault_injection.measure ~platform:apple_m2)
      Render.fig10;
    experiment "stress" "Section 5.7: syscall and signal handling overhead"
      (fun ~scale:_ ~quick:_ -> Exp_stress.measure ())
      Render.stress;
    experiment "intel" "Section 5.8: overhead on Intel x86_64"
      (Suite.get ~platform:Platform.intel_i7)
      Render.intel;
  ]

(* Our own extensions, invoked by name. *)
let extensions =
  [
    experiment "fleet"
      "Fleet mode: multi-tenant throughput/latency/energy vs tenant count \
       (DESIGN.md §16)"
      (Exp_fleet.measure ~platform:apple_m2)
      Render.fleet;
    experiment "ablation" "Ablations: dirty tracking, scheduling (DESIGN.md §5)"
      (fun ~scale ~quick:_ -> Exp_ablation.measure ~scale)
      Render.ablation;
    experiment "backends"
      "Checker backends: staleness vs recovery cost, remote chaos campaign \
       (DESIGN.md §18)"
      (fun ~scale:_ ~quick:_ -> Exp_backends.measure ())
      Render.backends;
    experiment "calibrate" "Calibration: per-benchmark little-core slowdowns"
      (fun ~scale ~quick:_ -> Exp_calibrate.measure ~platform:apple_m2 ~scale)
      Render.calibrate;
  ]

let experiments = paper @ extensions
let names () = List.map (fun e -> e.name) experiments

let find = function
  | "all" -> Some paper
  | name ->
    Option.map (fun e -> [ e ]) (List.find_opt (fun e -> e.name = name) experiments)

let run ~scale ~quick e =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" e.title;
  Printf.printf "==============================================================\n\n";
  e.run ~scale ~quick;
  print_newline ()
