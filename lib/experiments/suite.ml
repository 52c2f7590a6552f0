type row = {
  bench : Workloads.Spec.t;
  baseline : Measure.metrics;
  parallaft : Measure.metrics;
  raft : Measure.metrics;
}

let quick_set =
  [ "403.gcc"; "429.mcf"; "458.sjeng"; "456.hmmer"; "470.lbm"; "433.milc" ]

let benchmarks ~quick =
  if quick then
    List.filter (fun b -> List.mem b.Workloads.Spec.name quick_set) Workloads.Spec.all
  else Workloads.Spec.all

let cache : (string * float * bool, row list) Hashtbl.t = Hashtbl.create 4
let cache_mutex = Mutex.create ()

(* One benchmark = one pool task: three whole seeded runs, no state
   shared with any other benchmark, so fanning the list out over
   domains returns bit-identical rows for every pool width (enforced
   differentially by test_parallel). *)
let sweep ~platform ~scale ~quick =
  Util.Pool.map
    (fun bench ->
      Obs.Log.progress "  [sweep %s] %s..." platform.Platform.name
        bench.Workloads.Spec.name;
      let run mode = Measure.run_benchmark ~platform ~mode ~scale bench in
      let baseline = run Measure.Baseline in
      let parallaft =
        run (Measure.Protected (Parallaft.Config.parallaft ~platform ()))
      in
      let raft = run (Measure.Protected (Parallaft.Config.raft ~platform ())) in
      { bench; baseline; parallaft; raft })
    (benchmarks ~quick)

let get ~platform ~scale ~quick =
  let key = (platform.Platform.name, scale, quick) in
  let cached =
    Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key)
  in
  match cached with
  | Some rows -> rows
  | None ->
    (* Computed outside the lock: a sweep can take minutes and may
       itself fan out over the pool. Harnesses request distinct keys
       sequentially, so a duplicated sweep (two domains racing on one
       key) costs only wasted work, never an inconsistent table. *)
    let rows = sweep ~platform ~scale ~quick in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some rows -> rows
        | None ->
          Hashtbl.replace cache key rows;
          rows)

type metric = Perf | Energy | Memory
type system = Parallaft | Raft

let norm metric system r =
  let value (m : Measure.metrics) =
    match metric with
    | Perf -> m.wall_ns
    | Energy -> m.energy_j
    | Memory -> m.mean_pss_bytes
  in
  let measured = match system with Parallaft -> r.parallaft | Raft -> r.raft in
  Util.Stats.normalized ~baseline:(value r.baseline) ~measured:(value measured)

let geomean metric system rows = Util.Stats.geomean (List.map (norm metric system) rows)

let reported metric x =
  match metric with Memory -> x | Perf | Energy -> (x -. 1.0) *. 100.0

let short_name b =
  let name = b.Workloads.Spec.name in
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name
