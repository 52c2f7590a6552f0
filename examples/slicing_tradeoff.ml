(* Slicing-period tradeoff (a miniature of the paper's Figure 9).

   Run with:  dune exec examples/slicing_tradeoff.exe

   Short segments checkpoint often (forking and COW on the critical
   path); long segments leave more checker work unfinished when the main
   process exits (last-checker sync). Somewhere in between sits a sweet
   spot — this demo sweeps the period for one benchmark and prints the
   two opposing components. *)

let () =
  let platform = Platform.apple_m2 in
  let bench = Option.get (Workloads.Spec.find "gcc") in
  let scale = 0.5 in
  let baseline =
    Experiments.Measure.run_benchmark ~platform ~mode:Experiments.Measure.Baseline
      ~scale bench
  in
  Printf.printf "benchmark: %s (baseline %.2f ms)\n\n" bench.Workloads.Spec.name
    (baseline.Experiments.Measure.wall_ns /. 1e6);
  Printf.printf "%10s  %12s  %12s  %10s\n" "period" "fork+COW %" "sync %" "total %";
  List.iter
    (fun (label, period) ->
      let config = Parallaft.Config.parallaft ~platform ~slice_period:period () in
      let b =
        Experiments.Measure.breakdown ~baseline
          ~measured:
            (Experiments.Measure.run_benchmark ~platform
               ~mode:(Experiments.Measure.Protected config) ~scale bench)
      in
      Printf.printf "%10s  %12.1f  %12.1f  %10.1f\n" label b.fork_cow b.sync b.total)
    [ ("1B", 50_000); ("2B", 100_000); ("5B", 250_000); ("10B", 500_000);
      ("20B", 1_000_000) ];
  print_endline
    "\n(Periods use the paper's \"N billion cycles\" labels at the simulation's\n\
     documented cycle scale; see DESIGN.md.)"
