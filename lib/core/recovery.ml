(* The recovery stage: verified-prefix promotion of checkpoint
   snapshots, rollback to the recovery point, and whole-run abort
   teardown. Restarting the pipeline after a rollback is the
   recorder's job: it sits above this module. *)

module E = Sim_os.Engine
open Run_ctx

(* Segments torn down by rollback/abort never reach the replayer's
   finish path, so without help their Begin spans would dangle in the
   trace (Perfetto renders them as running forever) and their checker
   latency would go unrecorded. Close the checker's "check" span -- and,
   for the in-flight segment, the main-track "segment" span --
   explicitly. *)
let close_torn_down_check t seg =
  if Segment.launched_at seg <> None && not (Segment.is_done seg) then
    close_check t seg ~outcome:"torn-down"

let close_torn_down_cur t =
  match t.cur with
  | None -> ()
  | Some seg ->
    close_torn_down_check t seg;
    E.emit t.eng ~track:(main_track t) ~phase:Obs.Trace.End
      ~args:
        [
          ("seg", Obs.Trace.Int (Segment.id seg));
          ("outcome", Obs.Trace.Str "torn-down");
        ]
      "segment"

(* The teardown abort and rollback share, in the kill order the goldens
   pin (each kill is a traced exit): every tracked segment's checker,
   spare and snapshot; then, on rollback, the verified snapshots that
   were never promoted; then the main. *)
let tear_down_run t ~drop_verified =
  (* Teardown kills processes mid-phase; retire every open profiling
     scope now so no elapsed time is lost or double-counted. *)
  E.phase_close_all t.eng;
  latch_main_fault t;
  List.iter (close_torn_down_check t) t.live;
  close_torn_down_cur t;
  List.iter
    (fun seg ->
      kill_if_alive t (Segment.checker seg);
      Option.iter (kill_if_alive t) (Segment.spare seg);
      Segment.set_spare seg None;
      Option.iter (kill_if_alive t) (Segment.snapshot seg);
      Segment.tear_down seg)
    (t.live @ Option.to_list t.cur);
  if drop_verified then begin
    Hashtbl.iter (fun _ snap -> kill_if_alive t snap) t.verified_snapshots;
    Hashtbl.reset t.verified_snapshots
  end;
  (* The torn-down segments are never verified: the backend drops its
     queued and parked work. *)
  t.backend.flush t;
  kill_if_alive t t.main

(* Kill every process we own; ends the simulation. *)
let abort_run t =
  t.aborted <- true;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant "abort";
  tear_down_run t ~drop_verified:false;
  release_recovery_state t;
  (* The dead checkers leave the pool now: a shared pool's other
     tenants keep running after this tenant aborts. *)
  Core_pool.flush_tenant t.pool ~tid:t.tid

(* Recovery-point bookkeeping: a snapshot becomes the recovery point once
   every segment up to it has verified; older points are freed. *)
let note_verified t ~id ~snapshot =
  match snapshot with
  | None -> ()
  | Some snap ->
    Hashtbl.replace t.verified_snapshots id snap;
    let continue_promoting = ref true in
    while !continue_promoting do
      match Hashtbl.find_opt t.verified_snapshots (t.verified_prefix + 1) with
      | Some snap' ->
        t.verified_prefix <- t.verified_prefix + 1;
        Hashtbl.remove t.verified_snapshots t.verified_prefix;
        (match t.recovery_point with
        | Some (_, old) -> kill_if_alive t old
        | None -> ());
        t.recovery_point <- Some (t.verified_prefix, snap');
        (* The verified prefix moved past the rollback anchor: the
           re-executed run is making verified progress, so a later
           detection is a new fault, not the old one persisting. The
           rollback phase scope ends here — repair is complete once
           re-executed work verifies again. *)
        if (not t.verified_since_rollback) && t.rollback_anchor <> None then
          E.phase_leave t.eng ~track:Obs.Trace.Run "rollback";
        t.verified_since_rollback <- true
      | None -> continue_promoting := false
    done

(* Roll the whole run back to the recovery point: the paper's Table 2
   "error recovery" future-work row. Externally visible syscalls since
   that checkpoint are re-executed (the §3.4 buffered-IO assumption).
   Leaves the restored main stopped with no segment open; false when
   there was no verified state to return to and the run aborted. *)
let recover t =
  t.stats.Stats.recoveries <- t.stats.Stats.recoveries + 1;
  E.emit t.eng ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:
      [
        ("nr", Obs.Trace.Int t.stats.Stats.recoveries);
        ("verified_prefix", Obs.Trace.Int t.verified_prefix);
      ]
    "recovery";
  (* Tear down everything derived from the (possibly corrupt) state. *)
  tear_down_run t ~drop_verified:true;
  t.live <- [];
  t.cur <- None;
  t.pending_boundary <- false;
  t.main_exited <- false;
  match t.recovery_point with
  | None ->
    abort_run t;
    false
  | Some (anchor_id, snap) ->
    t.recovery_point <- None;
    (* Arm the persistent-fault classifier: until the verified prefix
       advances again, a further detection is the same fault coming
       back (Hard_fault), not something another rollback can fix. *)
    t.rollback_anchor <- Some anchor_id;
    t.verified_since_rollback <- false;
    (* Post-rollback segments re-execute from the checkpoint, so they
       no longer extend the persisted linear history: truncate the
       on-disk log at the last segment whose check actually ran (the
       failing one). Segments recorded past it — queued behind a
       deferred batch or remote dispatch — were never checked against
       the discarded state and are dropped from the manifest. *)
    (match t.seglog with
    | Some out ->
      Seglog_io.note_rollback out
        ~last_checked:
          (match Stats.detections_oldest_first t.stats with
          | (id, _) :: _ -> id
          | [] -> t.verified_prefix)
    | None -> ());
    (* The rollback phase runs on the Run track (concurrent work, not
       part of the main-core wall partition: re-recording overlaps it)
       until re-executed work verifies again in [note_verified]. *)
    E.phase_enter t.eng ~track:Obs.Trace.Run "rollback";
    (* Re-anchor the verified prefix at the ids the post-rollback
       segments will get, so promotion resumes seamlessly. *)
    t.verified_prefix <- t.next_id - 1;
    Hashtbl.replace t.roles snap Main_role;
    t.main <- snap;
    E.set_core t.eng snap ~core:t.main_core;
    Core_pool.flush_tenant t.pool ~tid:t.tid;
    true
