(* The values the paper reports for Parallaft and RAFT, each written
   once. *)

let geomean (metric : Suite.metric) (system : Suite.system) =
  match (metric, system) with
  | Perf, Parallaft -> 15.9
  | Perf, Raft -> 16.2
  | Energy, Parallaft -> 44.3
  | Energy, Raft -> 87.8
  | Memory, Parallaft -> 3.32
  | Memory, Raft -> 1.95

let intel_perf : Suite.system -> float = function Parallaft -> 26.2 | Raft -> 12.9
let intel_energy : Suite.system -> float = function Parallaft -> 46.7 | Raft -> 50.2
let benign_pct = 43.3

type stress = { getpid : float; devzero : float; sigusr1 : float }

let stress = { getpid = 124.5; devzero = 18.5; sigusr1 = 39.8 }
