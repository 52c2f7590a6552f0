(* Figure 10, generalized (§5.6 + DESIGN.md §13): fault injection over
   the full fault model. The original campaign flips a random bit of a
   random register in the checker of a random segment, at a uniformly
   random point within 1.1x the segment's length; the generalized grid
   also strikes checker memory, the main process (register and memory)
   and the runtime itself (kill/stall a checker mid-check), with the
   recovery extension off and on. Failed injections (the target
   finished first) are discarded and retried, as in the paper.

   Every landed run is also checked by the SDC oracle: its final
   main-process state (register file + memory image hash) and output
   are compared against a fault-free reference run of the same
   configuration, so "no silent data corruption" is measured, not
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

type tally = {
  mutable detected : int;
  mutable exception_ : int;
  mutable timeout : int;
  mutable benign : int;
  mutable transient : int;
      (* checker-side failures a passing re-check resolved *)
  mutable hard : int;  (* persistent faults: detected again after rollback *)
  mutable recovered : int;
      (* runs that detected, rolled back, and still finished in the
         reference final state *)
  mutable sdc : int;
      (* silent data corruptions: clean-looking runs whose final state
         or output differs from the fault-free reference *)
}

let fresh_tally () =
  {
    detected = 0;
    exception_ = 0;
    timeout = 0;
    benign = 0;
    transient = 0;
    hard = 0;
    recovered = 0;
    sdc = 0;
  }

let add_tally ~into t =
  into.detected <- into.detected + t.detected;
  into.exception_ <- into.exception_ + t.exception_;
  into.timeout <- into.timeout + t.timeout;
  into.benign <- into.benign + t.benign;
  into.transient <- into.transient + t.transient;
  into.hard <- into.hard + t.hard;
  into.recovered <- into.recovered + t.recovered;
  into.sdc <- into.sdc + t.sdc

let landed_total t =
  t.detected + t.exception_ + t.timeout + t.benign + t.transient + t.hard

let classify tally (outcome : Parallaft.Detection.outcome) =
  match outcome with
  | Parallaft.Detection.Detected _ -> tally.detected <- tally.detected + 1
  | Parallaft.Detection.Exception_detected _ ->
    tally.exception_ <- tally.exception_ + 1
  | Parallaft.Detection.Timeout_detected -> tally.timeout <- tally.timeout + 1
  | Parallaft.Detection.Benign -> tally.benign <- tally.benign + 1
  | Parallaft.Detection.Transient_checker_fault _ ->
    tally.transient <- tally.transient + 1
  | Parallaft.Detection.Hard_fault _ -> tally.hard <- tally.hard + 1

(* What the fault-free reference run of a configuration ended as; the
   SDC oracle compares every landed faulted run against this. *)
type reference = {
  ref_exit : int option;
  ref_output : string;
  ref_final : int64 option;
}

type attempt = {
  outcome : Parallaft.Detection.outcome;
  recovered_run : bool;
  silent_corruption : bool;
}

let config_for ~platform ~recovery ~recheck plan_opt =
  {
    (Parallaft.Config.parallaft ~platform ()) with
    Parallaft.Config.fault_plan = plan_opt;
    recovery;
    recheck_on_mismatch = recheck;
  }

let run_reference ~platform ~recovery ~recheck ~program =
  let config = config_for ~platform ~recovery ~recheck None in
  let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
  {
    ref_exit = r.Parallaft.Runtime.exit_status;
    ref_output = r.Parallaft.Runtime.output;
    ref_final = Parallaft.Stats.final_state_hash r.Parallaft.Runtime.stats;
  }

let run_one ~platform ~recovery ~recheck ~reference ~program ~plan =
  let config = config_for ~platform ~recovery ~recheck (Some plan) in
  let r = Parallaft.Runtime.run_protected ~platform ~config ~program () in
  match r.Parallaft.Runtime.stats.Parallaft.Stats.fi_outcome with
  | None -> None (* the injection never fired: retry another plan *)
  | Some outcome ->
    let clean_exit =
      (not r.Parallaft.Runtime.aborted)
      && r.Parallaft.Runtime.exit_status <> None
      && r.Parallaft.Runtime.exit_status = reference.ref_exit
    in
    let state_matches =
      (* Rollback re-executes externally visible writes (the paper's
         §3.4 buffered-IO assumption), so duplicated output after a
         recovery is not corruption; the final state hash is the exact
         oracle there. With no rollback the determinised workload's
         output must match byte-for-byte. *)
      Parallaft.Stats.final_state_hash r.Parallaft.Runtime.stats
      = reference.ref_final
      && (r.Parallaft.Runtime.stats.Parallaft.Stats.recoveries > 0
         || String.equal r.Parallaft.Runtime.output reference.ref_output)
    in
    Some
      {
        outcome;
        recovered_run =
          clean_exit && state_matches
          && r.Parallaft.Runtime.detections <> [];
        silent_corruption = clean_exit && not state_matches;
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
     because a re-dispatch or rollback shifted timing, so the SDC oracle
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
  let tally = fresh_tally () in
  if Array.length seg_insns = 0 then tally
  else begin
    (* Fault-free reference of the same configuration: recovery/recheck
       change forking and thus timing, and timing feeds rdtsc-style
       nondeterminism, so the oracle must compare like with like. *)
    let reference = run_reference ~platform ~recovery ~recheck ~program in
    let max_attempts = trials * attempts_factor in
    (* Pre-draw all plans sequentially: the RNG consumption is fixed. *)
    let plans = Array.make max_attempts (draw_plan ~rng ~seg_insns ~target) in
    for i = 1 to max_attempts - 1 do
      plans.(i) <- draw_plan ~rng ~seg_insns ~target
    done;
    let results : attempt option array = Array.make max_attempts None in
    let landed = ref 0 in
    let evaluated = ref 0 in
    let chunk_size = max (Util.Pool.jobs ()) 2 in
    while !landed < trials && !evaluated < max_attempts do
      let lo = !evaluated in
      let hi = min max_attempts (lo + chunk_size) - 1 in
      let idxs = List.init (hi - lo + 1) (fun k -> lo + k) in
      let rs =
        Util.Pool.map
          (fun i ->
            run_one ~platform ~recovery ~recheck ~reference ~program
              ~plan:plans.(i))
          idxs
      in
      List.iter2
        (fun i r ->
          results.(i) <- r;
          if r <> None then incr landed)
        idxs rs;
      evaluated := hi + 1
    done;
    (* First [trials] landed attempts in draw order — a prefix property
       unaffected by how many extra attempts the chunking evaluated. *)
    let taken = ref 0 in
    Array.iter
      (fun r ->
        match r with
        | Some a when !taken < trials ->
          incr taken;
          classify tally a.outcome;
          if a.recovered_run then tally.recovered <- tally.recovered + 1;
          if a.silent_corruption then tally.sdc <- tally.sdc + 1
        | _ -> ())
      results;
    tally
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
  let totals = fresh_tally () in
  List.iter
    (fun kind ->
      List.iter
        (fun recovery ->
          Obs.Log.progress "  [fig10 grid] %s recovery=%b..." kind recovery;
          let t =
            campaign ~kind ~recovery ~recheck:true ~platform ~scale ~trials
              ~rng bench
          in
          add_tally ~into:totals t;
          rows :=
            [
              kind;
              (if recovery then "on" else "off");
              string_of_int (landed_total t);
              string_of_int (t.detected + t.exception_ + t.timeout);
              string_of_int t.transient;
              string_of_int t.recovered;
              string_of_int t.hard;
              string_of_int t.benign;
              string_of_int t.sdc;
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
  totals

let run ~platform ~scale ~quick =
  let benches = Suite.benchmarks ~quick in
  let rng = Util.Rng.create ~seed:0xFA417L in
  let scale = fi_scale scale in
  let trials = trials_per_benchmark ~quick in
  let rows = ref [] in
  let totals = fresh_tally () in
  List.iter
    (fun bench ->
      Obs.Log.progress "  [fig10] %s..." bench.Workloads.Spec.name;
      let t = campaign ~platform ~scale ~trials ~rng bench in
      add_tally ~into:totals t;
      let n = landed_total t in
      let pct x = if n = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int n in
      rows :=
        [
          Suite.short_name bench;
          Printf.sprintf "%.0f" (pct t.detected);
          Printf.sprintf "%.0f" (pct t.exception_);
          Printf.sprintf "%.0f" (pct t.timeout);
          Printf.sprintf "%.0f" (pct t.benign);
          string_of_int t.sdc;
          string_of_int n;
        ]
        :: !rows)
    benches;
  Util.Table.print
    ~header:
      [ "benchmark"; "detected%"; "exception%"; "timeout%"; "benign%"; "sdc"; "n" ]
    (List.rev !rows);
  let n = landed_total totals in
  let pct x = if n = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int n in
  Printf.printf
    "\nOverall: %.1f%% benign (paper: 43.3%%); every non-benign fault detected\n\
     (detected %.1f%%, exception %.1f%%, timeout %.1f%%; %d landed injections; \
     sdc = %d)\n"
    (pct totals.benign) (pct totals.detected) (pct totals.exception_)
    (pct totals.timeout) n totals.sdc;
  (* The generalized target x recovery grid on the first benchmark. *)
  Printf.printf "\nFault-model grid (%s, re-check + watchdog on):\n"
    (Suite.short_name (List.hd benches));
  let grid_totals = run_grid ~platform ~scale ~quick ~rng (List.hd benches) in
  Printf.printf
    "\nGrid: %d landed (%d transient, %d recovered, %d hard); sdc = %d\n"
    (landed_total grid_totals) grid_totals.transient grid_totals.recovered
    grid_totals.hard grid_totals.sdc
