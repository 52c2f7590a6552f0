(** The record stage of the pipeline: main-process tracer events.

    Slices the main process into segments, records every
    application/OS interaction into the current segment's R/R log
    (§3.2), forks the per-segment checker and checkpoint processes,
    and hands each fully recorded segment to the checker backend's
    launch policy ({!Run_ctx.backend}[.launch]). It also owns the run's one
    rollback-or-abort decision, {!recover_or_abort}, because only the
    recorder can restart recording after {!Recovery.recover} restores
    the main. *)

val start_segment : Run_ctx.t -> unit
(** Fork the next checker, open a fresh [Recording] segment as
    [cur], clear dirty tracking, and re-arm the slicer. *)

val recover_or_abort : Run_ctx.t -> unit
(** Respond to a failure the run cannot absorb: roll back
    ({!Recovery.recover}) and restart recording at the recovery point
    while the recovery extension is on and fewer than
    {!Config.max_recoveries} rollbacks were spent; abort otherwise. *)

val do_boundary : Run_ctx.t -> unit
(** End the current segment (launching its checker) and, unless the
    main has exited, start the next one. The replayer calls this when a
    completing segment releases a main process held on
    [max_live_segments]. *)

val handle_main_event : Run_ctx.t -> Sim_os.Engine.event -> unit
