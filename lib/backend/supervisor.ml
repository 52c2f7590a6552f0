(* Exactly-once verification accounting for a run's checks, whichever
   checker backend launches them (DESIGN.md §18). The supervisor owns
   one entry per recorded segment and drives it
   Pending -> Leased -> Settled:

     - [note_recorded] registers the segment the moment recording ends;
     - [lease] grants (or re-grants, at a strictly higher incarnation)
       the right to produce the segment's verdict to one checker;
     - [heartbeat] is the unified stall-detection path: a lease whose
       checker makes no progress (and has no excuse) for longer than
       its budget expires, and the caller re-dispatches;
     - [settle] retires the segment on a verdict from the {e current}
       incarnation; a verdict carrying a stale incarnation (the lease
       was re-granted meanwhile) is reported [`Stale] and discarded by
       the caller, never double-counted.

   Settling twice, leasing after settlement, or re-leasing without
   raising the incarnation are structural bugs and raise [Violation]
   unconditionally — the invariant sweeps (PARALLAFT_INVARIANTS=1) add
   the cross-structure checks on top via [check_invariants]. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type lease = {
  node : int;  (* -1 for the in-process backends *)
  incarnation : int;  (* = the segment's redispatch count at lease time *)
  mutable last_insns : int;
  mutable since_ns : int;  (* time of the last renewing heartbeat *)
}

type entry =
  | Pending  (* recorded, waiting for dispatch (deferred queue / rpc) *)
  | Leased of lease
  | Settled of int  (* the incarnation whose verdict retired it *)

type counters = {
  mutable b_dispatched : int;
  mutable b_redispatched : int;
  mutable b_leases_expired : int;
  mutable b_stale_verdicts : int;
  mutable b_batches : int;
  mutable b_max_lag : int;
  mutable b_verified : int;
  mutable b_launch_ns : int;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  mutable recorded : int;  (* entries, net of cancellations *)
  c : counters;  (* the caller's record, counted in place *)
}

let create c = { entries = Hashtbl.create 32; recorded = 0; c }

let recorded t = t.recorded
let dispatched t = t.c.b_dispatched
let redispatched t = t.c.b_redispatched
let leases_expired t = t.c.b_leases_expired
let stale_verdicts t = t.c.b_stale_verdicts
let settled t = t.c.b_verified

(* Verification lag: segments recorded but not yet settled. *)
let lag t =
  Hashtbl.fold
    (fun _ e n -> match e with Settled _ -> n | Pending | Leased _ -> n + 1)
    t.entries 0

let observe_lag t =
  let l = lag t in
  if l > t.c.b_max_lag then t.c.b_max_lag <- l

let note_batch t = t.c.b_batches <- t.c.b_batches + 1
let note_stale t = t.c.b_stale_verdicts <- t.c.b_stale_verdicts + 1

let note_recorded t id =
  (match Hashtbl.find_opt t.entries id with
  | Some _ -> violation "supervisor: segment %d recorded twice" id
  | None -> ());
  Hashtbl.replace t.entries id Pending;
  t.recorded <- t.recorded + 1;
  observe_lag t

let lease t ~id ~node ~incarnation ~now_ns ~insns =
  let grant () =
    Hashtbl.replace t.entries id
      (Leased { node; incarnation; last_insns = insns; since_ns = now_ns });
    t.c.b_dispatched <- t.c.b_dispatched + 1
  in
  match Hashtbl.find_opt t.entries id with
  | Some (Settled _) -> violation "supervisor: segment %d leased after settling" id
  | Some Pending ->
    (* An incarnation > 0 on a first lease means the checker died in the
       pre-launch window and was swapped for the spare before ever
       holding a lease: still a re-dispatch. *)
    if incarnation > 0 then t.c.b_redispatched <- t.c.b_redispatched + 1;
    grant ()
  | Some (Leased l) ->
    if incarnation <= l.incarnation then
      violation "supervisor: segment %d re-leased at incarnation %d (current %d)"
        id incarnation l.incarnation;
    t.c.b_redispatched <- t.c.b_redispatched + 1;
    grant ()
  | None -> violation "supervisor: segment %d leased before it was recorded" id

(* The old watchdog ledger, verbatim: progress or a legitimate excuse
   (queued behind busy cores, waiting on a streaming log) renews the
   lease; otherwise it expires once the silence exceeds the budget.
   Unlike the ledger, the clock starts at dispatch — a checker that
   never produces a first heartbeat still expires. *)
let heartbeat t ~id ~now_ns ~insns ~excused ~budget_ns =
  match Hashtbl.find_opt t.entries id with
  | Some (Leased l) ->
    if insns > l.last_insns || excused then begin
      l.last_insns <- insns;
      l.since_ns <- now_ns;
      `Ok
    end
    else if budget_ns > 0 && now_ns - l.since_ns > budget_ns then `Expired
    else `Ok
  | Some Pending | Some (Settled _) | None -> `Ok

let note_expired t ~id =
  match Hashtbl.find_opt t.entries id with
  | Some (Leased _) -> t.c.b_leases_expired <- t.c.b_leases_expired + 1
  | Some Pending | Some (Settled _) | None -> ()

let current_incarnation t ~id =
  match Hashtbl.find_opt t.entries id with
  | Some (Leased l) -> Some l.incarnation
  | Some Pending | Some (Settled _) | None -> None

let node_of t ~id =
  match Hashtbl.find_opt t.entries id with
  | Some (Leased l) -> Some l.node
  | Some Pending | Some (Settled _) | None -> None

let settle t ~id ~incarnation =
  match Hashtbl.find_opt t.entries id with
  | Some (Settled _) -> violation "supervisor: segment %d settled twice" id
  | Some (Leased l) when l.incarnation = incarnation ->
    Hashtbl.replace t.entries id (Settled incarnation);
    t.c.b_verified <- t.c.b_verified + 1;
    `Ok
  | Some (Leased _) | Some Pending ->
    note_stale t;
    `Stale
  | None ->
    (* A RAFT streaming checker can die (and produce its verdict) while
       its segment is still recording — before [note_recorded] ever ran.
       Register and settle in one step — counting the implicit lease the
       streaming checker held — so the accounting still balances. *)
    t.recorded <- t.recorded + 1;
    t.c.b_dispatched <- t.c.b_dispatched + 1;
    Hashtbl.replace t.entries id (Settled incarnation);
    t.c.b_verified <- t.c.b_verified + 1;
    `Ok

(* Rollback/abort: segments torn down before verification leave the
   accounting entirely — they were re-executed (or the run is over), so
   "every recorded segment verified exactly once" quantifies over the
   segments that survive. *)
let cancel_unsettled t =
  let doomed =
    Hashtbl.fold
      (fun id e acc ->
        match e with Settled _ -> acc | Pending | Leased _ -> id :: acc)
      t.entries []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.entries id;
      t.recorded <- t.recorded - 1)
    doomed;
  List.length doomed

let unsettled t = lag t

let all_settled t = lag t = 0

let check_invariants t =
  let pending, leased, settled_n =
    Hashtbl.fold
      (fun _ e (p, l, s) ->
        match e with
        | Pending -> (p + 1, l, s)
        | Leased _ -> (p, l + 1, s)
        | Settled _ -> (p, l, s + 1))
      t.entries (0, 0, 0)
  in
  if settled_n <> settled t then
    violation "supervisor: %d settled entries but settled counter is %d"
      settled_n (settled t);
  if pending + leased + settled_n <> t.recorded then
    violation
      "supervisor: %d entries (%d pending, %d leased, %d settled) but %d recorded"
      (pending + leased + settled_n)
      pending leased settled_n t.recorded;
  if dispatched t < settled t then
    violation "supervisor: settled %d segments but only dispatched %d leases"
      (settled t) (dispatched t)
