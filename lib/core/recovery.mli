(** The recovery stage of the pipeline.

    Owns the run's fault-response state: promotion of verified
    checkpoint snapshots into the recovery point (contiguous-prefix
    rule), rollback of the whole run to that point (the paper's Table 2
    "error recovery" extension), and the abort teardown that kills
    every owned process so the simulation can end. Rollback and abort
    share one teardown. Recovery sits below {!Recorder} in the module
    order: it restores the main but never restarts recording —
    {!Recorder.recover_or_abort} does that. *)

val note_verified :
  Run_ctx.t -> id:int -> snapshot:Sim_os.Engine.pid option -> unit
(** Segment [id] verified cleanly; its end-of-segment snapshot (if any)
    becomes promotable. Frees snapshots that stop being useful. *)

val recover : Run_ctx.t -> bool
(** Tear down every segment and checker, clear the run's main-exited
    and main-held flags (which its checker pool reads), flush its
    tenant from the pool ({!Core_pool.flush_tenant}), and make the
    recovery-point snapshot the (stopped) main process. [true] when the
    run rolled back; [false] when no verified checkpoint was retained
    and the run aborted instead. *)

val abort_run : Run_ctx.t -> unit
(** Terminate the protected run: close dangling trace spans, kill every
    owned process (checkers, snapshots, recovery state, the main), and
    flush the run's tenant from its checker pool. *)
