(** The replay/check stage of the pipeline: checker tracer events.

    Launches a checker over its fully recorded segment (replay targets,
    timeout, optional fault injection, the re-check spare) and runs the
    {!Replay_kernel} over it: the R/R log replayed against the checker's
    interactions and the checker driven to the recorded execution
    points (§4.2). At the end point the replayer runs the program-state
    comparison. It counts each check's dispatch when it launches and
    its verification when its segment reaches [Done]. A failed check is answered by
    {!Recorder.recover_or_abort} (or a straight abort for a hard
    fault), unless the re-check extension can still retry it on a fresh
    checker (DESIGN.md §13); a completing segment may release a main
    process held on [max_live_segments] back through
    {!Recorder.do_boundary}. *)

val launch_checker : Run_ctx.t -> Segment.t -> unit
(** Arm and (for Parallaft) schedule the checker of a segment in
    [Awaiting_launch]; transitions it to [Checking], which starts its
    lease clock, and tells the backend ({!Run_ctx.backend}[.launched]). For
    a RAFT streaming checker — launched when recording started — this
    only arms the replay targets and wakes the checker if it was
    stalled. When {!Config.t.recheck_on_mismatch} is on (or the remote
    backend has not already forked one at dispatch), also forks the
    pristine spare a later re-dispatch would launch from. *)

val deliver_verdict : Run_ctx.t -> Segment.t -> Detection.outcome option -> unit
(** Act on a check's verdict now ([None] = verified). Every verdict
    first passes the backend's router, which may park it (a remote node
    returning late) or discard it (stale incarnation); the backend calls
    this when a parked verdict comes due. A failure is re-dispatched
    onto the spare when the re-check machinery still has budget;
    otherwise the final outcome is recorded (possibly reclassified
    {!Detection.Hard_fault} right after a rollback), the segment retired
    to [Done], and a failure answered with rollback or abort. *)

val finish_checker_infra : Run_ctx.t -> Segment.t -> Detection.outcome -> unit
(** Retire a check after an infrastructure failure (the checker died or
    stalled without producing a verdict — watchdog/lease expiry): never
    routed through the backend's verdict path, and re-dispatched on the
    spare whenever the re-check extension {e or} the remote backend's
    retry budget allows. *)

val handle_checker_event : Run_ctx.t -> Segment.t -> Sim_os.Engine.event -> unit
