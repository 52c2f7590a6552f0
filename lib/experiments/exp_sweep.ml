(* Figure 9: slicing-period sensitivity on gcc, mcf and sjeng.
   Periods map the paper's 1B..20B cycles through the 5e-5 scale to
   50k..1M simulated cycles. Expected shapes: (a) fork+COW overhead
   falls with the period, steepest for mcf; (b) last-checker-sync
   overhead rises, steepest for gcc (short inputs) and mcf (slow
   checkers); (c) their sum has a per-benchmark sweet spot. *)

let periods = [ ("1B", 50_000); ("2B", 100_000); ("5B", 250_000);
                ("10B", 500_000); ("20B", 1_000_000) ]

let benchmarks = [ "403.gcc"; "429.mcf"; "458.sjeng" ]

let measure_point ~platform ~scale bench period =
  let baseline = Measure.run_benchmark ~platform ~mode:Measure.Baseline ~scale bench in
  let config = Parallaft.Config.parallaft ~platform ~slice_period:period () in
  Measure.breakdown ~baseline
    ~measured:(Measure.run_benchmark ~platform ~mode:(Measure.Protected config) ~scale bench)

(* The full (benchmark x period) grid, flattened into one task list for
   Util.Pool: every cell is an isolated pair of seeded runs, so the
   grid is bit-identical at any pool width (cells never share state,
   and the table is reassembled in cell order after the join). Exposed
   with the lists as parameters so the differential determinism test
   can run a reduced grid. *)
let grid ?(periods = periods) ?(benchmarks = benchmarks) ~platform ~scale () =
  let cells =
    List.concat_map
      (fun name ->
        let bench =
          match Workloads.Spec.find name with
          | Some b -> b
          | None -> invalid_arg ("unknown benchmark " ^ name)
        in
        List.map (fun (label, period) -> (name, bench, label, period)) periods)
      benchmarks
  in
  let points =
    Util.Pool.map
      (fun (name, bench, label, period) ->
        Obs.Log.progress "  [fig9] %s @ %s..." name label;
        (label, measure_point ~platform ~scale bench period))
      cells
  in
  (* Cells were generated benchmark-major, one row per benchmark. *)
  let per_bench = List.length periods in
  List.mapi (fun i name -> (i, name)) benchmarks
  |> List.map (fun (i, name) ->
         ( name,
           List.filteri
             (fun j _ -> j >= i * per_bench && j < (i + 1) * per_bench)
             points ))

let run ~platform ~scale =
  let table = grid ~platform ~scale () in
  let print_series title proj =
    Printf.printf "%s\n" title;
    Util.Table.print
      ~header:("benchmark" :: List.map fst periods)
      (List.map
         (fun (name, points) ->
           name
           :: List.map (fun (_, pt) -> Printf.sprintf "%.1f" (proj pt)) points)
         table);
    print_newline ()
  in
  print_series "(a) Forking-and-COW overhead (%) vs slicing period" (fun p ->
      p.Measure.fork_cow);
  print_series "(b) Last-checker-sync overhead (%) vs slicing period" (fun p ->
      p.Measure.sync);
  print_series "(c) Combined performance overhead (%) vs slicing period" (fun p ->
      p.Measure.total);
  (* Sweet spots per benchmark (paper: gcc 2B, mcf 5B, sjeng 20B). *)
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
