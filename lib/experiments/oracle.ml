module Runtime = Parallaft.Runtime
module Stats = Parallaft.Stats

type run =
  | Protected of Runtime.report
  | Baseline of Runtime.baseline
  | Tenant of Fleet.report * Fleet.tenant_report

type clause =
  | Unsettled | Exit_status | Final_state | Output | Verified_count | Live_processes

type verdict = Clean | Recovered | Fail_stop | Violation of clause

(* What the clauses read of a run; [None] where its kind captures no
   such observable. *)
type observed = {
  aborted : bool;
  exit_status : int option;
  final_state : int64 option option;
  output : string option;
  stats : Stats.t option;
  live_at_end : int;
}

let observe = function
  | Protected r ->
    { aborted = r.Runtime.aborted; exit_status = r.Runtime.exit_status;
      final_state = Some (Stats.final_state_hash r.Runtime.stats);
      output = Some r.Runtime.output; stats = Some r.Runtime.stats;
      live_at_end = r.Runtime.live_at_end }
  | Baseline b ->
    { aborted = false; exit_status = b.Runtime.exit_status; final_state = None;
      output = Some b.Runtime.output; stats = None;
      live_at_end = b.Runtime.live_at_end }
  | Tenant (f, t) ->
    { aborted = t.Fleet.outcome = Fleet.Aborted; exit_status = t.Fleet.exit_status;
      final_state = Some t.Fleet.final_state_hash; output = None;
      stats = t.Fleet.stats; live_at_end = f.Fleet.live_at_end }

let judge ?reference run =
  let run = observe run and reference = Option.map observe reference in
  let rolled_back =
    match run.stats with Some st -> st.Stats.recoveries > 0 | None -> false
  in
  let differs get =
    match (Option.bind reference get, get run) with
    | Some want, Some got -> (not run.aborted) && want <> got
    | None, _ | _, None -> false
  in
  let verified_wrong (st : Stats.t) =
    let verified = st.Stats.backend.Stats.b_verified in
    verified > st.Stats.segments_total
    || ((not (run.aborted || rolled_back)) && verified <> st.Stats.segments_total)
  in
  let broken =
    [
      (Unsettled, (not run.aborted) && run.exit_status = None);
      (Exit_status, differs (fun o -> Some o.exit_status));
      (Final_state, differs (fun o -> o.final_state));
      (Output, (not rolled_back) && differs (fun o -> o.output));
      (Verified_count, Option.fold ~none:false ~some:verified_wrong run.stats);
      (Live_processes, run.live_at_end > 0);
    ]
  in
  match List.find_opt snd broken with
  | Some (clause, _) -> Violation clause
  | None -> if run.aborted then Fail_stop else if rolled_back then Recovered else Clean

let to_string = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Fail_stop -> "fail-stop"
  | Violation Unsettled -> "violation: neither exited nor aborted"
  | Violation Exit_status -> "violation: exit status differs from the reference"
  | Violation Final_state -> "violation: final-state hash differs from the reference"
  | Violation Output -> "violation: output differs from the reference without a rollback"
  | Violation Verified_count -> "violation: a segment verified other than exactly once"
  | Violation Live_processes -> "violation: simulated processes alive at the end"
