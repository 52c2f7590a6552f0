(* Figure 6: Parallaft performance-overhead breakdown, computed exactly
   as §5.2.1 prescribes (Measure.breakdown):
   - fork+COW        = Delta(system CPU time of main) / baseline wall
   - contention      = Delta(user CPU time of main)   / baseline wall
   - last-checker sync = protected total wall - main wall
   - runtime work    = total overhead - the three above.
   The total is Fig. 5's Parallaft overhead. Nothing is clamped:
   contention is negative on some benchmarks, and the chart draws only
   the positive components but labels each bar with the total. *)

let run ~platform ~scale ~quick =
  let rows =
    List.map
      (fun (r : Suite.row) ->
        ( Suite.short_name r.bench,
          Measure.breakdown ~baseline:r.baseline ~measured:r.parallaft ))
      (Suite.get ~platform ~scale ~quick)
  in
  print_string
    (Util.Table.stacked_bar_chart
       ~component_labels:
         [ "runtime work"; "last-checker sync"; "resource contention"; "fork+COW" ]
       (List.map
          (fun (name, (b : Measure.breakdown)) ->
            (name, [ b.runtime_work; b.sync; b.contention; b.fork_cow ]))
          rows));
  print_newline ();
  Util.Table.print
    ~header:[ "benchmark"; "runtime%"; "sync%"; "contention%"; "fork+COW%"; "total%" ]
    (List.map
       (fun (name, (b : Measure.breakdown)) ->
         name
         :: List.map (Printf.sprintf "%.1f")
              [ b.runtime_work; b.sync; b.contention; b.fork_cow; b.total ])
       rows)
