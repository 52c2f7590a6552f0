(* Figure 10, generalized (§5.6 + DESIGN.md §13): fault injection over
   the full fault model. The original campaign flips a random bit of a
   random register in the checker of a random segment, at a uniformly
   random point within 1.1x the segment's length; the generalized grid
   also strikes checker memory, the main process (register and memory)
   and the runtime itself (kill/stall a checker mid-check), with the
   recovery extension off and on. Failed injections (the target
   finished first) are discarded and retried, as in the paper.

   Every landed run is also judged by the run oracle (Oracle) against
   a fault-free reference run of the same configuration: its final
   main-process state (register file + memory image hash) and output
   are compared, so "no silent data corruption" is measured, not
   assumed — a run that looks clean but ends in a different state
   counts in the [sdc] column.

   Parallelism and determinism: the campaign pre-draws every candidate
   plan (a fixed number of RNG draws, so the stream position after a
   campaign does not depend on run outcomes), then evaluates attempts
   over Util.Pool in chunks, stopping once the evaluated prefix holds
   enough landed injections. Each attempt is an isolated seeded run, so
   whether attempt i lands — and its outcome — is a function of its
   plan alone. The tally is built from the first [trials] landed
   attempts in draw order; running extra attempts (a wider pool or a
   bigger chunk) can never change which those are, which is what makes
   the -j 1 and -j 4 tallies byte-identical (see test_parallel). *)

let trials_per_benchmark ~quick = if quick then 6 else 15

(* As in the paper, not every injection lands; drawing 4x the wanted
   trials bounds the campaign while leaving retries headroom. *)
let attempts_factor = 4

(* Injections use a reduced program size so a campaign of hundreds of
   whole-program runs stays tractable; the classification depends only
   on per-segment behaviour, which is size-independent. *)
let fi_scale scale = scale *. 0.25

(* A campaign's landed runs: each one's fault classification and the
   run oracle's verdict against the fault-free reference. *)
type tally = (Parallaft.Detection.outcome * Oracle.verdict) list

type column = Detected | Exception | Timeout | Benign | Transient | Hard

let column : Parallaft.Detection.outcome -> column = function
  | Parallaft.Detection.Detected _ -> Detected
  | Parallaft.Detection.Exception_detected _ -> Exception
  | Parallaft.Detection.Timeout_detected -> Timeout
  | Parallaft.Detection.Benign -> Benign
  | Parallaft.Detection.Transient_checker_fault _ -> Transient
      (* a checker-side failure a passing re-check resolved *)
  | Parallaft.Detection.Hard_fault _ -> Hard
      (* a persistent fault: detected again after rollback *)

let count_if p (t : tally) = List.length (List.filter p t)
let count col = count_if (fun (o, _) -> column o = col)

(* Rolled back, and still finished in the reference state. *)
let recovered = count_if (fun (_, v) -> v = Oracle.Recovered)

(* Silent data corruption: a run that exits as the reference did but
   ends in another state or output. One that exits with another status
   is neither recovered nor SDC. *)
let sdc =
  count_if (fun (_, v) ->
      v = Oracle.Violation Oracle.Final_state || v = Oracle.Violation Oracle.Output)

let config_for ~platform ~recovery ~recheck plan_opt =
  {
    (Parallaft.Config.parallaft ~platform ()) with
    Parallaft.Config.fault_plan = plan_opt;
    recovery;
    recheck_on_mismatch = recheck;
  }

(* Every kind draws a register (or page index) and a bit, so the RNG
   stream advances the same whatever the target class. *)
let draw_plan ~rng ~seg_insns ~target =
  let n_segments = Array.length seg_insns in
  let segment = Util.Rng.int rng n_segments in
  let t = max 1 seg_insns.(segment) in
  let delay = Util.Rng.int rng (max 1 (int_of_float (1.1 *. float_of_int t))) in
  let reg = Util.Rng.int rng Isa.Insn.num_regs in
  let bit = Util.Rng.int rng 64 in
  { Fault.segment; delay_instructions = delay; target = target reg bit;
    repeat = false }

(* [kind] is a fault target class keyword of [Fault.all_target_kinds]. *)
let campaign ?(kind = "checker-reg") ?(recovery = false) ?(recheck = false)
    ~platform ~scale ~trials ~rng bench =
  let target =
    match Fault.target_kind_of_string kind with
    | Ok target -> target
    | Error k -> invalid_arg ("Exp_fault_injection.campaign: unknown kind " ^ k)
  in
  (* A determinised variant ([Workloads.Spec.detimed]): a faulted run
     must not differ from its fault-free reference in output just
     because a re-dispatch or rollback shifted timing, so the run oracle
     gets an exact ground truth. *)
  let bench = Workloads.Spec.detimed bench in
  let programs =
    Workloads.Spec.programs bench ~page_size:platform.Platform.page_size ~scale
  in
  let program = List.hd programs in
  (* Profile run: segment instruction counts. *)
  let profile =
    Parallaft.Runtime.run_protected ~platform
      ~config:(Parallaft.Config.parallaft ~platform ())
      ~program ()
  in
  let seg_insns =
    List.rev profile.Parallaft.Runtime.stats.Parallaft.Stats.segment_insn_deltas
    |> Array.of_list
  in
  if Array.length seg_insns = 0 then []
  else begin
    (* Fault-free reference of the same configuration: recovery/recheck
       change forking and thus timing, and timing feeds rdtsc-style
       nondeterminism, so the oracle must compare like with like. *)
    let reference =
      Oracle.Protected
        (Parallaft.Runtime.run_protected ~platform
           ~config:(config_for ~platform ~recovery ~recheck None)
           ~program ())
    in
    let max_attempts = trials * attempts_factor in
    (* Pre-draw all plans in order: the RNG consumption is fixed. *)
    let plans = Array.init max_attempts (fun _ -> draw_plan ~rng ~seg_insns ~target) in
    let attempt i =
      let config = config_for ~platform ~recovery ~recheck (Some plans.(i)) in
      let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
      (* [None]: the injection never fired; another plan is tried. *)
      Option.map
        (fun outcome -> (outcome, Oracle.judge ~reference (Oracle.Protected r)))
        r.Parallaft.Runtime.stats.Parallaft.Stats.fi_outcome
    in
    let chunk_size = max (Util.Pool.jobs ()) 2 in
    (* The landed attempts in draw order, evaluated a chunk at a time. *)
    let rec evaluate landed lo =
      if List.length landed >= trials || lo >= max_attempts then landed
      else
        let idxs = List.init (min chunk_size (max_attempts - lo)) (fun k -> lo + k) in
        evaluate (landed @ List.filter_map Fun.id (Util.Pool.map attempt idxs))
          (lo + chunk_size)
    in
    (* First [trials] landed attempts in draw order — a prefix property
       unaffected by how many extra attempts the chunking evaluated. *)
    List.filteri (fun i _ -> i < trials) (evaluate [] 0)
  end

(* ------------------------------------------------------------------ *)
(* The generalized grid: every target class x recovery off/on, on one
   benchmark, with the hardened pipeline (re-check + watchdog) active.
   Small per-cell trial counts keep the 12-cell grid tractable; the
   headline checker-register campaign above carries the paper-scale
   statistics. *)

let grid_trials ~quick = if quick then 2 else 4

let run_grid ~platform ~scale ~quick ~rng bench =
  let trials = grid_trials ~quick in
  let rows = ref [] in
  let totals = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun recovery ->
          Obs.Log.progress "  [fig10 grid] %s recovery=%b..." kind recovery;
          let t =
            campaign ~kind ~recovery ~recheck:true ~platform ~scale ~trials
              ~rng bench
          in
          totals := !totals @ t;
          rows :=
            [
              kind;
              (if recovery then "on" else "off");
              string_of_int (List.length t);
              string_of_int (count Detected t + count Exception t + count Timeout t);
              string_of_int (count Transient t);
              string_of_int (recovered t);
              string_of_int (count Hard t);
              string_of_int (count Benign t);
              string_of_int (sdc t);
            ]
            :: !rows)
        [ false; true ])
    Fault.all_target_kinds;
  Util.Table.print
    ~header:
      [
        "target";
        "recovery";
        "landed";
        "detected";
        "transient";
        "recovered";
        "hard";
        "benign";
        "sdc";
      ]
    (List.rev !rows);
  !totals

let run ~platform ~scale ~quick =
  let benches = Suite.benchmarks ~quick in
  let rng = Util.Rng.create ~seed:0xFA417L in
  let scale = fi_scale scale in
  let trials = trials_per_benchmark ~quick in
  let rows = ref [] in
  let totals = ref [] in
  List.iter
    (fun bench ->
      Obs.Log.progress "  [fig10] %s..." bench.Workloads.Spec.name;
      let t = campaign ~platform ~scale ~trials ~rng bench in
      totals := !totals @ t;
      let n = List.length t in
      let pct col = if n = 0 then 0.0 else 100.0 *. float_of_int (count col t) /. float_of_int n in
      rows :=
        [
          Suite.short_name bench;
          Printf.sprintf "%.0f" (pct Detected);
          Printf.sprintf "%.0f" (pct Exception);
          Printf.sprintf "%.0f" (pct Timeout);
          Printf.sprintf "%.0f" (pct Benign);
          string_of_int (sdc t);
          string_of_int n;
        ]
        :: !rows)
    benches;
  Util.Table.print
    ~header:
      [ "benchmark"; "detected%"; "exception%"; "timeout%"; "benign%"; "sdc"; "n" ]
    (List.rev !rows);
  let totals = !totals in
  let n = List.length totals in
  let pct col =
    if n = 0 then 0.0 else 100.0 *. float_of_int (count col totals) /. float_of_int n
  in
  Printf.printf
    "\nOverall: %.1f%% benign (paper: 43.3%%); every non-benign fault detected\n\
     (detected %.1f%%, exception %.1f%%, timeout %.1f%%; %d landed injections; \
     sdc = %d)\n"
    (pct Benign) (pct Detected) (pct Exception) (pct Timeout) n (sdc totals);
  (* The generalized target x recovery grid on the first benchmark. *)
  Printf.printf "\nFault-model grid (%s, re-check + watchdog on):\n"
    (Suite.short_name (List.hd benches));
  let grid_totals = run_grid ~platform ~scale ~quick ~rng (List.hd benches) in
  Printf.printf
    "\nGrid: %d landed (%d transient, %d recovered, %d hard); sdc = %d\n"
    (List.length grid_totals) (count Transient grid_totals) (recovered grid_totals)
    (count Hard grid_totals) (sdc grid_totals)
