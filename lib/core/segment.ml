module E = Sim_os.Engine

exception Invariant_violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

type streaming = {
  cursor : Rr_log.cursor;
  mutable waiting : bool;
  started_ns : int;
}

type recording = {
  log : Rr_log.t;
  streaming : streaming option;
}

type recorded = {
  log : Rr_log.t;
  end_point : Exec_point.t;
  insn_delta : int;
  main_dirty : int array;
  snapshot : E.pid option;
  streaming : streaming option;
}

type checking = {
  log : Rr_log.t;
  cursor : Rr_log.cursor;
  replay : Exec_point.replay;
  mutable pending_signals : (Exec_point.t * Sim_os.Sig_num.t) list;
  end_point : Exec_point.t;
      (* retained from the recorded payload so a re-dispatch can rebuild
         the replay plan from scratch *)
  insn_delta : int;
  main_dirty : int array;
  snapshot : E.pid option;
  launched_at_ns : int;
  mutable hb_insns : int;
  mutable hb_since_ns : int;
}

type state =
  | Recording of recording
  | Awaiting_launch of recorded
  | Checking of checking
  | Done

type phase =
  | Recording_p
  | Awaiting_launch_p
  | Checking_p
  | Done_p

let phase_of_state = function
  | Recording _ -> Recording_p
  | Awaiting_launch _ -> Awaiting_launch_p
  | Checking _ -> Checking_p
  | Done -> Done_p

let phase_to_string = function
  | Recording_p -> "recording"
  | Awaiting_launch_p -> "awaiting-launch"
  | Checking_p -> "checking"
  | Done_p -> "done"

type t = {
  id : int;
  mutable checker : E.pid;
      (* replaced when a re-check/watchdog re-dispatch promotes the
         spare; the roles table is re-keyed by the caller *)
  mutable spare : E.pid option;
      (* pristine fork taken just before the checker first runs; the
         fresh checker a re-dispatch launches from *)
  mutable redispatches : int;
  mutable recheck_of : Detection.outcome option;
      (* the failure that triggered the current re-check; a passing
         re-check resolves it as Transient_checker_fault *)
  mutable state : state;
  mutable history : phase list;  (** oldest first, starting [Recording_p] *)
  mutable torn_down : bool;
}

let id t = t.id
let checker t = t.checker
let spare t = t.spare
let set_spare t pid = t.spare <- pid
let redispatches t = t.redispatches
let recheck_of t = t.recheck_of
let state t = t.state
let phase t = phase_of_state t.state
let history t = t.history
let torn_down t = t.torn_down

(* The paper's pipeline (figure 1(b)): record, hand over, replay, retire.
   [Recording_p -> Done_p] is the one shortcut: a RAFT streaming checker
   that dies (fault, timeout, divergence) while its segment is still
   being recorded is retired straight from the record phase.
   [Checking_p -> Awaiting_launch_p] is the re-dispatch loop (DESIGN.md
   §13): a failed or watchdog-killed check returns to the launch queue
   on a fresh checker forked from the segment's start snapshot. *)
let legal_transition ~from ~into =
  match (from, into) with
  | Recording_p, Awaiting_launch_p
  | Awaiting_launch_p, Checking_p
  | Checking_p, Done_p
  | Checking_p, Awaiting_launch_p
  | Recording_p, Done_p ->
    true
  | _, _ -> false

let legal_history phases =
  let rec ok = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> legal_transition ~from:a ~into:b && ok rest
  in
  match phases with
  | Recording_p :: _ -> ok phases
  | _ -> false

let transition t into_state =
  let from = phase_of_state t.state and into = phase_of_state into_state in
  if not (legal_transition ~from ~into) then
    violation "segment %d: illegal transition %s -> %s" t.id
      (phase_to_string from) (phase_to_string into);
  t.state <- into_state;
  t.history <- t.history @ [ into ]

let create ~id ~checker =
  {
    id;
    checker;
    spare = None;
    redispatches = 0;
    recheck_of = None;
    state = Recording { log = Rr_log.create (); streaming = None };
    history = [ Recording_p ];
    torn_down = false;
  }

let start_streaming t ~started_ns =
  match t.state with
  | Recording ({ streaming = None; log } as r) ->
    let s = { cursor = Rr_log.cursor log; waiting = false; started_ns } in
    t.state <- Recording { r with streaming = Some s }
  | Recording { streaming = Some _; _ } ->
    violation "segment %d: streaming started twice" t.id
  | Awaiting_launch _ | Checking _ | Done ->
    violation "segment %d: streaming start outside the record phase (%s)" t.id
      (phase_to_string (phase t))

let finish_recording t ~end_point ~insn_delta ~main_dirty ~snapshot =
  match t.state with
  | Recording { log; streaming } ->
    transition t
      (Awaiting_launch { log; end_point; insn_delta; main_dirty; snapshot; streaming })
  | Awaiting_launch _ | Checking _ | Done ->
    violation "segment %d: finish_recording in state %s" t.id
      (phase_to_string (phase t))

let recorded t =
  match t.state with
  | Awaiting_launch r -> r
  | Recording _ | Checking _ | Done ->
    violation "segment %d: not awaiting launch (%s)" t.id
      (phase_to_string (phase t))

let begin_checking t ~replay ~pending_signals ~launched_at_ns ~now_ns ~insns =
  match t.state with
  | Awaiting_launch r ->
    let cursor =
      match r.streaming with
      | Some s -> s.cursor
      | None -> Rr_log.cursor r.log
    in
    transition t
      (Checking
         {
           log = r.log;
           cursor;
           replay;
           pending_signals;
           end_point = r.end_point;
           insn_delta = r.insn_delta;
           main_dirty = r.main_dirty;
           snapshot = r.snapshot;
           launched_at_ns;
           hb_insns = insns;
           hb_since_ns = now_ns;
         })
  | Recording _ | Checking _ | Done ->
    violation "segment %d: begin_checking in state %s" t.id
      (phase_to_string (phase t))

(* Return a failed/killed check to the launch queue on a fresh checker
   (the caller promotes the spare and re-keys the roles table). The
   recorded payload is rebuilt from the checking state; the log cursor
   and replay plan are recreated from scratch at the next launch, and a
   re-dispatched check never streams (its checker starts from the
   segment's start state with the log already complete). *)
let redispatch t ~checker =
  match t.state with
  | Checking c ->
    t.checker <- checker;
    t.spare <- None;
    t.redispatches <- t.redispatches + 1;
    transition t
      (Awaiting_launch
         {
           log = c.log;
           end_point = c.end_point;
           insn_delta = c.insn_delta;
           main_dirty = c.main_dirty;
           snapshot = c.snapshot;
           streaming = None;
         })
  | Recording _ | Awaiting_launch _ | Done ->
    violation "segment %d: redispatch in state %s" t.id
      (phase_to_string (phase t))

(* A checker that died between dispatch and launch (the pre-first-
   heartbeat window, where the watchdog swaps it) is replaced in place:
   the spare is promoted without leaving Awaiting_launch — there is no
   checking state to unwind, the recorded payload is untouched, and the
   re-launch goes through the normal launch path. Counts as a
   re-dispatch. *)
let replace_checker_prelaunch t ~checker =
  match t.state with
  | Awaiting_launch _ ->
    t.checker <- checker;
    t.spare <- None;
    t.redispatches <- t.redispatches + 1
  | Recording _ | Checking _ | Done ->
    violation "segment %d: pre-launch checker replacement in state %s" t.id
      (phase_to_string (phase t))

let set_recheck_of t outcome = t.recheck_of <- outcome

(* The watchdog's lease clock: progress or a legitimate excuse (queued
   behind busy cores) renews it; silence past the budget since the last
   renewal expires it. The clock starts at launch, so a checker that
   never makes progress still expires. *)
let heartbeat t ~now_ns ~insns ~excused ~budget_ns =
  match t.state with
  | Checking c ->
    if insns > c.hb_insns || excused then begin
      c.hb_insns <- insns;
      c.hb_since_ns <- now_ns;
      `Ok
    end
    else if budget_ns > 0 && now_ns - c.hb_since_ns > budget_ns then `Expired
    else `Ok
  | Recording _ | Awaiting_launch _ | Done ->
    violation "segment %d: heartbeat in state %s" t.id
      (phase_to_string (phase t))

let complete t =
  match t.state with
  | Checking _ | Recording { streaming = Some _; _ } -> transition t Done
  | Recording { streaming = None; _ } ->
    violation "segment %d: completed while recording with no streaming checker"
      t.id
  | Awaiting_launch _ -> violation "segment %d: completed before launch" t.id
  | Done -> violation "segment %d: completed twice" t.id

let tear_down t = t.torn_down <- true

(* ------------------------------------------------------------------ *)
(* Per-state accessors. Each is total over exactly the states where the
   datum exists; asking outside them is itself an invariant violation,
   which is what replaced the seed implementation's [Option.get]s. *)

let log t =
  match t.state with
  | Recording { log; _ } -> log
  | Awaiting_launch { log; _ } -> log
  | Checking { log; _ } -> log
  | Done -> violation "segment %d: no log after completion" t.id

let checking t =
  match t.state with
  | Checking c -> c
  | Recording _ | Awaiting_launch _ | Done ->
    violation "segment %d: not checking (%s)" t.id (phase_to_string (phase t))

let cursor t =
  match t.state with
  | Recording { streaming = Some s; _ } -> Some s.cursor
  | Recording { streaming = None; _ } -> None
  | Awaiting_launch { streaming = Some s; _ } -> Some s.cursor
  | Awaiting_launch { streaming = None; _ } -> None
  | Checking c -> Some c.cursor
  | Done -> None

let snapshot t =
  match t.state with
  | Recording _ | Done -> None
  | Awaiting_launch { snapshot; _ } -> snapshot
  | Checking { snapshot; _ } -> snapshot

let streaming t =
  match t.state with
  | Recording { streaming; _ } | Awaiting_launch { streaming; _ } -> streaming
  | Checking _ | Done -> None

(* The checker has been handed to the scheduler: either its segment
   reached the check phase, or it is streaming during the record phase. *)
let launched_at t =
  match t.state with
  | Checking { launched_at_ns; _ } -> Some launched_at_ns
  | Recording { streaming = Some s; _ } | Awaiting_launch { streaming = Some s; _ }
    ->
    Some s.started_ns
  | Recording { streaming = None; _ }
  | Awaiting_launch { streaming = None; _ }
  | Done ->
    None

let waiting t =
  match streaming t with
  | Some s -> s.waiting
  | None -> false

let set_waiting t flag =
  match streaming t with
  | Some s -> s.waiting <- flag
  | None ->
    violation "segment %d: no streaming checker to mark %s" t.id
      (if flag then "waiting" else "runnable")

let is_done t = t.state = Done

(* ------------------------------------------------------------------ *)
(* Debug invariants over one segment (the cross-structure run-level
   checks live in Run_ctx.check_invariants). *)

let check_invariants t =
  if not (legal_history t.history) then
    violation "segment %d: illegal phase history [%s]" t.id
      (String.concat "; " (List.map phase_to_string t.history));
  (match List.rev t.history with
  | last :: _ when last <> phase t ->
    violation "segment %d: history tail %s disagrees with state %s" t.id
      (phase_to_string last)
      (phase_to_string (phase t))
  | _ -> ());
  match t.state with
  | Checking c ->
    (* Replay targets are consumed in order; pending signals must never
       outlive the replay plan that carries them. *)
    if Exec_point.finished c.replay && c.pending_signals <> [] then
      violation "segment %d: replay finished with %d pending signals" t.id
        (List.length c.pending_signals)
  | Recording _ | Awaiting_launch _ | Done -> ()
